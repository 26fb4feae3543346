"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that the product generator reproduces the max-of-factors rule, that
the percentile helper omits p90 below 100 samples, and that a wrong expected
answer makes the verdict gate, and the benchmark command, fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

import run
from products import pinned_factors, product, relabel
from workloads import Case


def _analyze_level(cli, text: str, workdir: str):
    path = os.path.join(workdir, "m.monoid")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", "--monoid", path, "--json"])
    assert code == 0, code
    return json.loads(out.getvalue())["fo2_level"]


def test_product_max_rule(cli, workdir: str):
    fs = {f.name: f for f in pinned_factors()}
    for left, right in (("L3-6a", "L2-6"), ("L2-6", "L1-5")):
        a, b = fs[left], fs[right]
        assert _analyze_level(cli, product([a]).to_text(), workdir) == a.level
        assert _analyze_level(cli, product([b]).to_text(), workdir) == b.level
        mono = relabel(product([a, b]), random.Random(0))
        assert mono.level == max(a.level, b.level)
        assert _analyze_level(cli, mono.to_text(), workdir) == mono.level


def test_percentiles_omit_p90_below_100_samples():
    assert "p90" not in run.percentiles([1.0] * 99)
    pct = run.percentiles([float(i) for i in range(100)])
    assert pct["n"] == 100 and pct["p50"] == 49.5 and 89 < pct["p90"] < 90


def test_wrong_answer_fails_the_gate(cli):
    right = Case("a(a|b)*", ["analyze", "--regex", "a(a|b)*", "--json"], {"fo2_level": 2})
    wrong = Case("a(a|b)*", right.argv, {"fo2_level": 3})
    tally = {"attempted": 0, "failed": 0}
    results = run.run_pass(cli, [right], tally, run.Gauge())
    assert run.check_pass([right], results) == 0
    for cases, res in (([wrong], results), ([right], [(2,) + results[0][1:]])):
        try:
            run.check_pass(cases, res)
        except run.VerdictError:
            pass
        else:
            raise AssertionError("the gate accepted a wrong verdict")

    # and the command exits nonzero, with "correct": false
    saved = run.BUILDERS["small-batch"]
    run.BUILDERS["small-batch"] = lambda seed, workdir: [wrong]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "small-batch", "--seed", "0", "--seconds", "0"])
    finally:
        run.BUILDERS["small-batch"] = saved
    assert code == 1, code
    assert json.loads(out.getvalue().splitlines()[-1])["correct"] is False


def main() -> int:
    cli = run.import_package()
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        test_product_max_rule(cli, workdir)
    test_percentiles_omit_p90_below_100_samples()
    test_wrong_answer_fails_the_gate(cli)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
