"""The benchmark's workloads: the README's standard result set in three parts.

Each operation is one `entloc` command, given to `entloc.cli.run` exactly
as the README spells it, with its `-o` path relative to the round's own
directory. The three scalar commands the README sends to stdout
(`spin-vanish-point`, `gauss-fit`, `gauss-inequality`) get an `-o` file, so
their output can be checked. The seed moves only coupling strengths,
purities and angles; it never changes a cell count or a resolution, and
seed 0 gives the README's commands exactly. Only the standard library is used,
so the timed process imports nothing besides entloc.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("spin-landscapes", "one-party-maps", "two-party-maps")


@dataclass(frozen=True)
class Op:
    """One command: its argv for `entloc.cli.run`, its output file, and
    whether it is a scan whose surface rows count as cells."""

    key: str
    argv: tuple[str, ...]
    output: str
    scan: bool


def inputs(seed: int) -> dict[str, str]:
    """Seeded inputs as the strings the commands receive.

    Seed 0 is the README. Any other seed draws couplings within 5 % of the
    README's, a purity in [0.3, 1] and pair angles away from the axes.
    """
    if seed == 0:
        return {"f_value": "0.65", "theta1": "0.7853981634",
                "theta2": "0.7853981634", "alpha": "6", "alpha_weak": "0.06"}
    rng = random.Random(seed)
    return {
        "f_value": f"{rng.uniform(0.3, 1.0):.4f}",
        "theta1": f"{rng.uniform(0.15, 1.42):.10f}",
        "theta2": f"{rng.uniform(0.15, 1.42):.10f}",
        "alpha": f"{6.0 * math.exp(rng.uniform(-0.05, 0.05)):.4f}",
        "alpha_weak": f"{0.06 * math.exp(rng.uniform(-0.05, 0.05)):.6f}",
    }


def _op(key: str, command: str, output: str, scan: bool) -> Op:
    return Op(key, tuple(command.split()) + ("-o", output), output, scan)


WIDTHS = "0.5,1,2,3,4,6,8,10"
SIGMA_ALPHAS = "0.25,0.5,1,2,4,8"


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one round of a workload, in the order they run."""
    p = inputs(seed)
    if workload == "spin-landscapes":
        f = p["f_value"]
        tag = f.replace(".", "")
        return [
            _op("spin_S", "spin-scan --steps 64", "spin_S.csv", True),
            _op("spin_SD", "spin-scan --steps 64 --restricted", "spin_SD.csv", True),
            _op("spin_dS", "spin-scan --steps 64 --surface delta", "spin_dS.csv", True),
            _op("spin_N", f"spin-negativity-scan --steps 64 --f-value {f}",
                f"spin_N_{tag}.csv", True),
            _op("spin_ND", f"spin-negativity-scan --steps 64 --f-value {f} --restricted",
                f"spin_ND_{tag}.csv", True),
            _op("spin_dN", f"spin-negativity-scan --steps 64 --f-value {f} --surface delta",
                f"spin_dN_{tag}.csv", True),
            _op("spin_NF", "spin-negativity-scan --f-range 0.0625 1 128",
                "spin_NF.csv", True),
            _op("spin_NF_D", "spin-negativity-scan --f-range 0.0625 1 128 --restricted",
                "spin_NF_D.csv", True),
            _op("spin_vanish", f"spin-vanish-point --theta1 {p['theta1']} "
                f"--theta2 {p['theta2']}", "spin_vanish.json", False),
            _op("spin_SD_json", "spin-scan --steps 64 --restricted --format json",
                "spin_SD.json", True),
        ]
    if workload == "one-party-maps":
        a, weak = p["alpha"], p["alpha_weak"]
        grid = f"--centers -4 4 81 --widths {WIDTHS} --n-bins 200"
        return [
            _op("one_a6", f"gauss-one-restricted --alpha {a} {grid}", "one_a6.csv", True),
            _op("one_a006", f"gauss-one-restricted --alpha {weak} {grid}",
                "one_a006.csv", True),
            _op("one_a6_rescaled", f"gauss-one-restricted --alpha {a} {grid} "
                "--surface rescaled", "one_a6_rescaled.csv", True),
            _op("both_case3", f"gauss-one-restricted --alpha {a} --centers -4 4 81 "
                "--widths 0.5", "both_case3.csv", True),
            _op("converge", f"gauss-converge --alpha {a} --widths 1,2,4 --n-bins 200 "
                "--n-basis 40", "converge.csv", False),
        ]
    if workload == "two-party-maps":
        a = p["alpha"]
        return [
            _op("both_case1", f"gauss-both-restricted --alpha {a} --mode profile-equal "
                "--width 0.5 --centers -4 4 81", "both_case1.csv", True),
            _op("both_case2", f"gauss-both-restricted --alpha {a} --mode profile-fixed "
                "--bob-center 0 --width 0.5 --centers -4 4 81", "both_case2.csv", True),
            _op("ent_map_w05", f"gauss-both-restricted --alpha {a} --mode grid "
                "--width 0.5 --centers -4 4 41", "ent_map_w05.csv", True),
            _op("ent_map_w4", f"gauss-both-restricted --alpha {a} --mode grid "
                "--width 4 --centers -6 6 41", "ent_map_w4.csv", True),
            _op("joint_w05", f"gauss-classical-map --alpha {a} --kind joint "
                "--width 0.5 --centers -4 4 41", "joint_w05.csv", True),
            _op("cond_w05", f"gauss-classical-map --alpha {a} --kind conditional "
                "--width 0.5 --centers -4 4 41", "cond_w05.csv", True),
            _op("fit_ent", "gauss-fit --input ent_map_w05.csv --form symmetric",
                "fit_ent.json", False),
            _op("fit_cond", "gauss-fit --input cond_w05.csv --form conditional",
                "fit_cond.json", False),
            _op("sig_q", f"gauss-sigma-scan --alphas {SIGMA_ALPHAS} --which quantum "
                "--width 0.5", "sig_q.csv", False),
            _op("sig_c", f"gauss-sigma-scan --alphas {SIGMA_ALPHAS} --which classical "
                "--width 0.5", "sig_c.csv", False),
            # The non-discarding region stays centred at 0, as in the README: off
            # centre, the two pieces of its complement get unequal grid spacings
            # and the outside entropy converges to a wrong value (see CHANGES.md).
            _op("ineq", f"gauss-inequality --alpha {a} --grid-a 4 --grid-b 4 --extent 4 "
                "--nd-center 0 --nd-half-width 1", "ineq.json", False),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
