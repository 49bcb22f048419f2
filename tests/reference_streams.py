"""GreedyMatching and AugmentingMatching of permlab.streams with their pairs
held as a list in the order taken, searched and removed from by value on
each augmentation: the reference that the dict-held pairs are checked
against."""

import json

from permlab.streams import StreamAlgorithm


def pair_chars(u, v) -> int:
    return len(str(u)) + len(str(v)) + 6


class ListGreedyMatching(StreamAlgorithm):
    def init(self):
        return {"matched": {}, "pairs": [], "pairs_chars": 0}

    def update(self, state, edge, rand):
        u, v = edge
        if u not in state["matched"] and v not in state["matched"]:
            state["matched"][u] = v
            state["matched"][v] = u
            state["pairs"].append((u, v))
            state["pairs_chars"] += pair_chars(u, v)
        return state

    def finalize(self, state, rand):
        return sorted(state["pairs"])

    def serialize(self, state) -> bytes:
        return json.dumps(sorted(state["pairs"])).encode()

    def state_bits(self, state) -> int:
        return 8 * max(2, state["pairs_chars"])


class ListAugmentingMatching(ListGreedyMatching):
    def start_pass(self, state, pass_index: int):
        state["pass"] = pass_index
        state["half"] = {}
        state["half_chars"] = 0
        return state

    def update(self, state, edge, rand):
        if state.get("pass", 1) == 1:
            return super().update(state, edge, rand)
        u, v = edge
        matched = state["matched"]
        if u not in matched and v not in matched:
            return super().update(state, edge, rand)
        for a, bnode in ((u, v), (v, u)):
            if a in matched or bnode not in matched:
                continue
            partner = matched[bnode]
            other = state["half"].get(partner)
            if other is not None and other not in matched and other != a:
                state["pairs"].remove(
                    (bnode, partner) if (bnode, partner) in state["pairs"] else (partner, bnode)
                )
                state["pairs"].extend([(a, bnode), (partner, other)])
                state["pairs_chars"] += (
                    pair_chars(a, bnode) + pair_chars(partner, other) - pair_chars(bnode, partner)
                )
                for x, y in ((a, bnode), (partner, other)):
                    matched[x] = y
                    matched[y] = x
                self._pop_half(state, partner)
                self._pop_half(state, bnode)
            else:
                self._pop_half(state, bnode)
                state["half"][bnode] = a
                state["half_chars"] += pair_chars(bnode, a)
        return state

    @staticmethod
    def _pop_half(state, key) -> None:
        old = state["half"].pop(key, None)
        if old is not None:
            state["half_chars"] -= pair_chars(key, old)

    def serialize(self, state) -> bytes:
        return json.dumps([sorted(state["pairs"]), sorted(state["half"].items())]).encode()

    def state_bits(self, state) -> int:
        return 8 * (4 + max(2, state["pairs_chars"]) + max(2, state["half_chars"]))
