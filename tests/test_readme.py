"""The README's code blocks run as written."""

import re
from pathlib import Path

from wtfc import analytic_pe_no_shadowing, signal_energy

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    """The first python block under the README's ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_its_comments_hold(capsys):
    namespace = {}
    exec(compile(_python_block("Library example"), str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
    params, est, ifsk = namespace["params"], namespace["est"], namespace["ifsk"]
    assert params.q == 3
    assert params.tone_count == 2700 and params.alphabet_size == 270000
    assert ifsk.alphabet_size == 2700
    mu = signal_energy(10e3, params, 1.0) + 1.0
    exact = analytic_pe_no_shadowing(mu, params.noise_slot_count)
    assert est.iterations == 10**6
    assert abs(est.p_e - exact) <= 3 * est.half_width_95
