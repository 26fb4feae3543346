#!/usr/bin/env python3
"""Walkthrough: the two independent R_m / L_m membership routes.

Route 1 (quotients): R_1 = L_1 = the J-trivial monoids; membership in
R_{m+1} is membership of the quotient by the congruence sim_k in L_m, and
dually for L_{m+1} via sim_d.  Unrolled, this walks one alternating chain
per side: M, M/~K, (M/~K)/~D, ... for R and its mirror for L, and M lies
in R_m (L_m) when its chain is J-trivial within m-1 steps.

Route 2 (identities): R_m is carved out by the DA identity
(xy)^w x (xy)^w = (xy)^w together with an inductively built word identity
phi(G_m) = phi(I_m), decided over all variable assignments by one forward
search over the values both sides reach; L_m uses the mirrored words.
"""

from fo2level import (build_G, build_I, format_term, in_Lm, in_Lm_by_identities,
                      in_Rm, in_Rm_by_identities, mirror, parse_regex,
                      phi_word, quotient_chain, regex_to_min_dfa,
                      transition_monoid)

monoid = transition_monoid(regex_to_min_dfa(parse_regex("a(a|b)*")))
print(f"syntactic monoid of a(a|b)*: {monoid.size} elements")

for side, order in (("R", "~K, ~D, ..."), ("L", "~D, ~K, ...")):
    print(f"\nquotient chain for the {side}-side ({order}):")
    for step, q in enumerate(quotient_chain(monoid, side)):
        print(f"  step {step}: size {q.size}, J-trivial: {q.is_j_trivial()}")

print("\nmembership table (quotient route vs identity route):")
print("  m   in R_m    same?   in L_m    same?")
for m in (2, 3, 4):
    r_q, r_i = in_Rm(monoid, m), in_Rm_by_identities(monoid, m)
    l_q, l_i = in_Lm(monoid, m), in_Lm_by_identities(monoid, m)
    print(f"  {m}   {str(r_q):5}   {r_q == r_i}    {str(l_q):5}   {l_q == l_i}")

print("\nthe word identities for m = 3:")
g, i = build_G(3), build_I(3)
print(f"  G_3 = {g}, I_3 = {i}")
print(f"  R_3:  {format_term(phi_word(g))}")
print(f"     =  {format_term(phi_word(i))}")
print(f"  L_3 uses the mirrored words {mirror(g)} and {mirror(i)}")
