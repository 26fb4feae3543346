"""Command-line surface: analyze, oracle, rankers, greens, corpus.

Exit codes: 0 ok, 1 usage or parse error, 2 internal inconsistency (a
theory-violating disagreement between the two decision routes), 3 resource
budget exceeded.  Output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automata import (DfaFormatError, RegexSyntaxError, minimize,
                       parse_dfa_file, parse_regex, regex_to_min_dfa)
from .corpus import (check_action_agreement, check_alphabet_stability,
                     check_condensed_semantics, check_congruence_quotients,
                     check_dual_route, check_equiv_factor, check_factor_compat,
                     check_inner_segment, check_level_anchors,
                     check_monotonicity, check_relation_congruence,
                     check_subword_direction, corpus_alphabet, make_entries,
                     straubing_tally)
from .identities import IdentityBudgetError, identities_level
from .monoid import (FiniteMonoid, MonoidFormatError, MonoidTooLargeError,
                     parse_monoid_file, transition_monoid)
from .rankers import (RankerBudgetError, RankerSyntaxError, eval_ranker,
                      is_condensed, least_oracle_n, parse_ranker)
from .varieties import (InternalInconsistencyError, LevelResult,
                        NotACongruenceError, fo2_level)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="fo2level",
                description="Alternation-depth analysis of regular languages "
                            "in two-variable first-order logic")
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("--regex", help="regular expression (| union, juxtaposition, *, ~)")
        sp.add_argument("--dfa", metavar="FILE", help="DFA description file")
        sp.add_argument("--monoid", metavar="FILE", help="multiplication-table file")
        sp.add_argument("--monoid-cap", type=int, default=100_000,
                        help="transition-monoid size cap (default 100000)")

    sp = sub.add_parser("analyze", help="decide the least FO2 alternation depth")
    add_input(sp)
    sp.add_argument("--max-m", type=int, default=6, help="depth search cap (default 6)")
    sp.add_argument("--method", choices=["quotient", "identities", "both"], default="both")
    sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("oracle", help="search the least n making ranker "
                                       "equivalence refine the word morphism")
    add_input(sp)
    sp.add_argument("--m", type=int, required=True, help="block bound of the equivalence")
    sp.add_argument("--max-n", type=int, default=8, help="depth search bound (default 8)")
    sp.add_argument("--max-len", type=int, default=6, help="word length bound (default 6)")

    sp = sub.add_parser("rankers", help="evaluate a ranker on a word")
    sp.add_argument("--word", required=True)
    sp.add_argument("--ranker", required=True, help="tokens like 'Xa Yb Xc'")

    sp = sub.add_parser("greens", help="print the Green's-relation structure")
    add_input(sp)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("corpus", help="run the cross-validation battery on random DFAs")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=50)
    sp.add_argument("--max-states", type=int, default=4)
    sp.add_argument("--letters", type=int, default=2)
    return p


def _load_monoid(args) -> tuple[str, int | None, FiniteMonoid]:
    """Resolve the input flags to (description, minimal dfa size, monoid)."""
    chosen = [k for k in ("regex", "dfa", "monoid") if getattr(args, k) is not None]
    if len(chosen) != 1:
        raise _UsageError("exactly one of --regex / --dfa / --monoid is required")
    cap = args.monoid_cap
    if cap < 1:
        raise _UsageError("--monoid-cap must be >= 1")
    if args.regex is not None:
        dfa = regex_to_min_dfa(parse_regex(args.regex))
        return f"regex {args.regex}", dfa.n_states, transition_monoid(dfa, max_size=cap)
    if args.dfa is not None:
        with open(args.dfa, encoding="utf-8") as fh:
            dfa = minimize(parse_dfa_file(fh.read()))
        return f"dfa {args.dfa}", dfa.n_states, transition_monoid(dfa, max_size=cap)
    with open(args.monoid, encoding="utf-8") as fh:
        mono = parse_monoid_file(fh.read())
    return f"monoid {args.monoid}", None, mono


def _level_field(result: LevelResult | None):
    if result is None:
        return None
    if result.status == "level":
        return result.m
    if result.status == "exceeded":
        return "exceeded"
    return None


def _witness_json(mono: FiniteMonoid, identity: str | None, assignment):
    if assignment is None:
        return None
    named = {f"x{k}": mono.element_name(v) for k, v in sorted(assignment.items())}
    return {"identity": identity, "assignment": named}


def cmd_analyze(args) -> int:
    if args.max_m < 1:
        raise _UsageError("--max-m must be >= 1")
    description, dfa_states, mono = _load_monoid(args)
    run_quotient = args.method in ("quotient", "both")
    run_identities = args.method in ("identities", "both")

    # the identities route first, so that its budget refusals cost no
    # quotient-route work
    ident = identities_level(mono, args.max_m) if run_identities else None
    quot = fo2_level(mono, args.max_m) if run_quotient else None

    level = quot if quot is not None else ident.result
    witness = None
    if ident is not None:
        witness = _witness_json(mono, ident.witness_identity, ident.witness)
    elif level.status == "not-fo2":
        # the identities route stops at its DA check outside DA; the quotient
        # route has answered, so that check may take all |M|^2 pairs
        da = identities_level(mono, 1, max_assignments=mono.size ** 2)
        witness = _witness_json(mono, da.witness_identity, da.witness)

    agreement = True
    if quot is not None and ident is not None:
        agreement = quot == ident.result

    report = {
        "input": description,
        "dfa_states": dfa_states,
        "monoid_size": mono.size,
        "aperiodic": mono.is_aperiodic(),
        "in_da": mono.is_in_da(),
        "j_trivial": mono.is_j_trivial(),
        "r_trivial": mono.is_r_trivial(),
        "l_trivial": mono.is_l_trivial(),
        "fo2_level": _level_field(level) if level.status != "exceeded" else None,
        "method_quotient": _level_field(quot),
        "method_identities": _level_field(ident.result) if ident else None,
        "agreement": agreement,
        "witness": witness,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            if key == "witness":
                if value is None:
                    print("witness: none")
                else:
                    assg = ", ".join(f"{k}={v}" for k, v in value["assignment"].items())
                    print(f"witness: {value['identity']} fails at {assg}")
            elif value is None:
                print(f"{key}: none")
            elif isinstance(value, bool):
                print(f"{key}: {'true' if value else 'false'}")
            else:
                print(f"{key}: {value}")
        if level.status == "exceeded":
            print(f"note: level exceeds --max-m {args.max_m}; raise the cap")
    if not agreement:
        print("error: decision routes disagree; this indicates a bug", file=sys.stderr)
        return 2
    return 0


def cmd_oracle(args) -> int:
    if args.m < 1 or args.max_n < 1 or args.max_len < 0:
        raise _UsageError("--m and --max-n must be >= 1, --max-len >= 0")
    description, _states, mono = _load_monoid(args)
    if mono.gens is None:
        raise _UsageError("the oracle needs a generator map (use a language "
                          "input or a monoid file with gen lines)")
    print(f"input: {description}")
    print(f"monoid_size: {mono.size}")
    n, counterexample = least_oracle_n(mono, args.m, args.max_n, args.max_len)
    if n is not None:
        print(f"oracle: holds at n={n} (m={args.m}, words up to length {args.max_len})")
    else:
        u, v = counterexample
        print(f"oracle: no n <= {args.max_n} works (m={args.m}); "
              f"last counterexample: {u!r} vs {v!r}")
    return 0


def cmd_rankers(args) -> int:
    ranker = parse_ranker(args.ranker)
    pos = eval_ranker(ranker, args.word)
    print(f"word: {args.word}")
    print(f"ranker: {ranker}")
    print(f"position: {pos if pos is not None else 'undefined'}")
    print(f"condensed: {'true' if is_condensed(ranker, args.word) else 'false'}")
    return 0


def cmd_greens(args) -> int:
    description, _states, mono = _load_monoid(args)
    g = mono.greens()
    idem = set(mono.idempotent_array.tolist())
    elements = [{
        "index": x,
        "name": mono.element_name(x),
        "j": int(g.j_class[x]),
        "r": int(g.r_class[x]),
        "l": int(g.l_class[x]),
        "idempotent": x in idem,
    } for x in range(mono.size)]
    if args.json:
        print(json.dumps({
            "input": description,
            "monoid_size": mono.size,
            "j_classes": g.num_j,
            "r_classes": g.num_r,
            "l_classes": g.num_l,
            "elements": elements,
        }, indent=2))
    else:
        print(f"input: {description}")
        print(f"monoid_size: {mono.size}")
        print(f"j_classes: {g.num_j}")
        print(f"r_classes: {g.num_r}")
        print(f"l_classes: {g.num_l}")
        print("elements (index name J R L idempotent):")
        for e in elements:
            star = "e" if e["idempotent"] else "-"
            print(f"  {e['index']:3d} {e['name']:>10} J{e['j']} R{e['r']} L{e['l']} {star}")
    return 0


def cmd_corpus(args) -> int:
    if args.count < 0 or args.max_states < 1 or not (1 <= args.letters <= 26):
        raise _UsageError("bad corpus parameters")
    print(f"corpus: seed={args.seed} count={args.count} "
          f"max_states={args.max_states} letters={args.letters}")
    entries = make_entries(args.seed, args.count, args.max_states, args.letters)
    da = [e for e in entries if e.monoid.is_in_da()]
    n_level = {}
    for e in da:
        key = str(e.level)
        n_level[key] = n_level.get(key, 0) + 1
    print(f"generated: {len(entries)}")
    print(f"in_da: {len(da)}")
    for key in sorted(n_level):
        print(f"  {key}: {n_level[key]}")
    if not entries:
        print("result: PASS (empty corpus)")
        return 0

    alpha = corpus_alphabet(args.letters)
    gating = [
        check_dual_route(da),
        check_level_anchors(entries),
        check_monotonicity(entries),
        check_congruence_quotients(da),
        check_action_agreement(da),
        check_alphabet_stability(da, max_len=3),
        check_factor_compat(alpha, max_len=5),
        check_equiv_factor(alpha, max_len=5),
        check_inner_segment(alpha, max_len=5),
        check_relation_congruence(alpha, max_len=5, samples=300, seed=args.seed),
        check_subword_direction(alpha, max_len=4),
        check_condensed_semantics(alpha, max_len=5),
    ]
    for res in gating:
        print(res.line())
    suffix = check_factor_compat(alpha, max_len=5, include_suffix_clause=True)
    print(f"informational {suffix.line()} [non-gating: clause has known counterexamples]")
    for row in straubing_tally(da):
        print(row.line())
    ok = all(r.ok for r in gating)
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "analyze": cmd_analyze,
            "oracle": cmd_oracle,
            "rankers": cmd_rankers,
            "greens": cmd_greens,
            "corpus": cmd_corpus,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (IdentityBudgetError, RankerBudgetError, MonoidTooLargeError, MemoryError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (NotACongruenceError, InternalInconsistencyError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except (RegexSyntaxError, DfaFormatError, MonoidFormatError,
            RankerSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
