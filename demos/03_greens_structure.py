#!/usr/bin/env python3
"""Walkthrough: Green's relations inside a syntactic monoid.

Elements are named by their shortest generating word.  Two elements share
a J-class (resp. R-, L-class) when each divides the other two-sidedly
(resp. on the right, on the left).  A monoid is J-trivial when all
J-classes are singletons; R_m/L_m membership below level 2 is exactly
R-/L-triviality.
"""

from fo2level import parse_regex, regex_to_min_dfa, transition_monoid

for regex in ["(ab)*", "a(a|b)*", "a*b*"]:
    monoid = transition_monoid(regex_to_min_dfa(parse_regex(regex)))
    g = monoid.greens()
    idem = set(monoid.idempotent_array.tolist())
    print(f"syntactic monoid of {regex}: {monoid.size} elements, "
          f"{g.num_j} J / {g.num_r} R / {g.num_l} L classes")
    print("  elem        J   R   L   idempotent")
    for x in range(monoid.size):
        mark = "yes" if x in idem else ""
        print(f"  {monoid.element_name(x):10} {g.j_class[x]:3} {g.r_class[x]:3} "
              f"{g.l_class[x]:3}   {mark}")
    flags = []
    for name, val in [("J-trivial", monoid.is_j_trivial()),
                      ("R-trivial", monoid.is_r_trivial()),
                      ("L-trivial", monoid.is_l_trivial()),
                      ("aperiodic", monoid.is_aperiodic()),
                      ("in DA", monoid.is_in_da())]:
        flags.append(f"{name}: {val}")
    print("  " + ", ".join(flags))
    print()
