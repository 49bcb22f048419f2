"""A child process for the work whose memory must not count as the
benchmark's: the matching-dichotomy gate and the reference loop.

Re-reading a 568k-edge graph.json and matching on it takes about as much
memory as `verify` does, and the reference loop allocates about 70 MB. In a
child, neither shows in the benchmark process's peak RSS, which then measures
the permlab calls alone. The parent sends one JSON line per request and waits
for the reply, so the child never runs during a timed call.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import traceback
from pathlib import Path


class Helper:
    """Client side: one child for the whole run; close() waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _ask(self, request: dict):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"helper exited with {self.proc.wait()}")
        return json.loads(reply)

    def dichotomy(self, graph_path: str, spec: str, m: int, b: int, k: int, p: int) -> list[str]:
        """Problems found in the graph hiding id or cross; empty when none."""
        return self._ask({"graph": graph_path, "spec": spec, "m": m, "b": b, "k": k, "p": p})

    def reference(self) -> float:
        """Wall time of one reference loop, taken in the child."""
        return self._ask({"reference": True})

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _dichotomy(req: dict) -> list[str]:
    """Hiding id gives a perfect matching of n + m/2, hiding cross one of n."""
    from permlab.gen import default_params, vertex_count
    from permlab.graphs import LayeredGraph
    from permlab.matching import bipartite_of, max_matching, sigma_cross, sigma_eq

    m, spec = req["m"], req["spec"]
    with open(req["graph"]) as fh:
        doc = json.load(fh)
    want_sigma = sigma_eq(m) if spec == "id" else sigma_cross(m)
    if tuple(doc["sigma"]) != want_sigma:
        return [f"graph.json hides {doc['sigma']}, expected {spec}"]
    body = doc["graph"]
    g = LayeredGraph(body["layers"], [tuple(e) for e in body["edges"]], body.get("tags", []))
    n = vertex_count(default_params(m, req["b"], k=req["k"], p=req["p"]), general=True)
    want = n + m // 2 if spec == "id" else n
    res = max_matching(bipartite_of(g, m))
    if not res.certified or res.size != want:
        return [f"max matching {res.size} (certified={res.certified}), expected {want}"]
    return []


def _reference() -> float:
    """A fixed, permlab-free mix of tuple building, sorting, dict inserts and
    a JSON round trip over a working set of about 70 MB. Host speed moves it
    and permlab's stage times alike; a program change moves only the latter.
    A cache-sized loop tracked the stages worse than no reference at all."""
    t0 = time.perf_counter()
    rows = [(i % 97, str(i % 13), i, i * 7 % 1000) for i in range(200_000)]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    index = {}
    for a, _, c, e in rows:
        index[c] = (a, e)
    json.loads(json.dumps([list(r) for r in rows[:70_000]]))
    del rows, index
    return time.perf_counter() - t0


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for line in sys.stdin:
        request = json.loads(line)
        if "reference" in request:
            print(json.dumps(_reference()), flush=True)
            continue
        try:
            problems = _dichotomy(request)
        except Exception as err:  # a malformed graph fails its op, not the run
            traceback.print_exc()
            problems = [f"check raised {err!r}"]
        print(json.dumps(problems), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
