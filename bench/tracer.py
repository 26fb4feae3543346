"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``fo2level`` layer from the
outside and restores them afterwards; nothing inside the package changes.
The CLI imports functions by name (``from .monoid import transition_monoid``),
so a function is replaced under every ``fo2level.*`` module name bound to it.
Methods are replaced on their class.

Spans stay in memory as ``[name, input, parent, start_ns, end_ns]`` lists.
Idempotent counts need work, so they are taken after the pass and are not
charged to any layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from fo2level import automata, cli, identities, monoid, rankers, varieties

# Span names are "<layer>.<function>"; a layer's self time sums its spans.
LAYERS = ("monoid", "identities", "varieties", "automata", "rankers", "cli")

# metric -> span names whose self time it sums
TIME_METRICS = {
    "monoid.transition_monoid_s": ("monoid.transition_monoid",),
    "monoid.greens_s": ("monoid.greens",),
    "monoid.parse_s": ("monoid.parse",),
    "monoid.da_check_s": ("monoid.da_check",),
    "identities.level_s": ("identities.level", "identities.check"),
    "varieties.fo2_level_s": ("varieties.fo2_level",),
    "varieties.congruence_s": ("varieties.congruence",),
    "varieties.quotient_s": ("varieties.quotient",),
    "automata.parse_s": ("automata.parse",),
    "automata.regex_to_dfa_s": ("automata.regex_to_dfa",),
    "automata.minimize_s": ("automata.minimize",),
    "rankers.table_build_s": ("rankers.table_build",),
    "rankers.partition_equiv_s": ("rankers.partition_equiv",),
    "cli.self_s": ("cli.main",),
}
COUNT_METRICS = (
    "monoid.elements", "monoid.idempotents",
    "identities.checks", "identities.assignment_space", "identities.budget_refusals",
    "varieties.quotients_built", "automata.dfa_states",
    "rankers.partition_calls", "rankers.rankers", "rankers.words",
)


def _count_idempotents(table: np.ndarray) -> int:
    ar = np.arange(table.shape[0])
    return int(np.count_nonzero(table[ar, ar] == ar))


class Recorder:
    """Spans and counters of one traced pass; `input` tags each span."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.input = -1
        self._stack: list[int] = []
        self._tables: list[tuple[int, np.ndarray]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.spans)
            span = [name, rec.input, rec._stack[-1] if rec._stack else -1,
                    time.perf_counter_ns(), 0]
            rec.spans.append(span)
            rec._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                rec._stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _count(self, key: str, n: int = 1):
        self.counts[(self.input, key)] += n

    def settle(self):
        """Count elements and idempotents of the input monoids, after the pass."""
        for inp, table in self._tables:
            self.counts[(inp, "monoid.elements")] += table.shape[0]
            self.counts[(inp, "monoid.idempotents")] += _count_idempotents(table)
        self._tables.clear()

    # -- install / remove --------------------------------------------------

    def _replace(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname == "fo2level" or modname.startswith("fo2level."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def _replace_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, after))

    def install(self):
        rec = self

        def on_monoid(_args, result):
            rec._tables.append((rec.input, result.table))

        def on_minimize(_args, result):
            rec._count("automata.dfa_states", result.n_states)

        def on_quotient(_args, _result):
            rec._count("varieties.quotients_built")

        def on_table(args, _result):
            table = args[0]
            rec._count("rankers.rankers", len(table.rankers))
            rec._count("rankers.words", len(table.words))

        def on_partition(_args, _result):
            rec._count("rankers.partition_calls")

        check = identities.satisfies_identity

        @functools.wraps(check)
        def counted_check(m, lhs, rhs, *args, **kwargs):
            nvars = max(identities.term_num_vars(lhs), identities.term_num_vars(rhs))
            rec._count("identities.checks")
            rec._count("identities.assignment_space", m.size ** nvars)
            try:
                return check(m, lhs, rhs, *args, **kwargs)
            except identities.IdentityBudgetError:
                rec._count("identities.budget_refusals")
                raise

        plain = [
            (cli.main, "cli.main", None),
            (automata.parse_regex, "automata.parse", None),
            (automata.parse_dfa_file, "automata.parse", None),
            (automata.regex_to_min_dfa, "automata.regex_to_dfa", None),
            (automata.minimize, "automata.minimize", on_minimize),
            (monoid.transition_monoid, "monoid.transition_monoid", on_monoid),
            (monoid.parse_monoid_file, "monoid.parse", on_monoid),
            (identities.identities_level, "identities.level", None),
            (varieties.fo2_level, "varieties.fo2_level", None),
            (varieties.sim_k, "varieties.congruence", None),
            (varieties.sim_d, "varieties.congruence", None),
            (varieties.quotient, "varieties.quotient", on_quotient),
            (rankers.least_oracle_n, "rankers.oracle", None),
        ]
        for fn, name, after in plain:
            self._replace(fn, self._wrap(name, fn, after))
        self._replace(check, self._wrap("identities.check", counted_check))
        self._replace_method(monoid.FiniteMonoid, "greens", "monoid.greens")
        self._replace_method(monoid.FiniteMonoid, "is_in_da", "monoid.da_check")
        self._replace_method(rankers.RankerTable, "__init__", "rankers.table_build", on_table)
        self._replace_method(rankers.RankerTable, "partition_equiv",
                             "rankers.partition_equiv", on_partition)

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[tuple[str, int, int]]:
        """(name, input, self ns) per span: its duration minus its children's."""
        child = defaultdict(int)
        for span in self.spans:
            if span[2] >= 0:
                child[span[2]] += span[4] - span[3]
        return [(s[0], s[1], s[4] - s[3] - child[i]) for i, s in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """Self time per metric (seconds) and per layer (% of all self time)."""
        by_name = defaultdict(int)
        for name, _inp, ns in self.self_times():
            by_name[name] += ns
        out = {metric: sum(by_name[n] for n in names) / 1e9
               for metric, names in TIME_METRICS.items()}
        layer = defaultdict(int)
        for name, ns in by_name.items():
            layer[name.split(".", 1)[0]] += ns
        total = sum(layer.values()) or 1
        for lay in LAYERS:
            out[f"{lay}.share"] = 100.0 * layer[lay] / total
        return out

    def totals(self) -> dict[str, int]:
        out = dict.fromkeys(COUNT_METRICS, 0)
        for (_inp, key), n in self.counts.items():
            out[key] += n
        return out

    def counts_by_input(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = defaultdict(dict)
        for (inp, key), n in self.counts.items():
            out[inp][key] = n
        return out
