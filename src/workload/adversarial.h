// Adversarial sharing sequences reproducing Section 4's worked examples
// and the worst-case study of Figure 4: sequences of three-way joins where
// a shared subexpression is either worth the risk (Example 4.1 — GREEDY
// loses unboundedly) or not (Example 4.2 — NORMALIZE loses unboundedly).

#ifndef DSM_WORKLOAD_ADVERSARIAL_H_
#define DSM_WORKLOAD_ADVERSARIAL_H_

#include <cstdint>

#include "workload/scenario.h"

namespace dsm {

// Each scenario below is one server, an explicit join graph and a
// TableDrivenCostModel, with its sharing sequence.

// Example 4.1 generalized: n sharings (a, b, c_x) with exactly two plans
// each — (ab)c_x and a(bc_x) — where c[ab] = risky_cost,
// c[(ab)c_x] = epsilon and C[a(bc_x)] = alt_cost. The optimal solution
// computes ab once; GREEDY never does and pays alt_cost forever.
// Requires n <= 62 (tables a, b, c_1..c_n share one 64-table catalog).
Scenario MakeGreedyTrap(int n, double risky_cost = 10.0,
                        double alt_cost = 10.0, double epsilon = 1e-3);

// Example 4.2: c[ab] = n; plans cost ~epsilon for the first n-1 sharings;
// the final sharing's a(bc_n) plan costs 1 + 2*epsilon while (ab)c_n costs
// epsilon on top of the huge c[ab]. NORMALIZE takes the unrewarded risk on
// the last sharing; MANAGEDRISK declines it and is optimal.
Scenario MakeNormalizeTrap(int n, double epsilon = 1e-2);

// Random mixture for the Figure 4 sweep: three-way joins over a pool of
// tables on a random connected join graph with random subexpression costs.
Scenario MakeRandomThreeWay(uint64_t seed, int num_sharings,
                            int table_pool = 16);

// A scenario exercising both correction terms of Eq. (1) (Section 4.4):
// `n` four-way sharings (a,b,c,d_x) over the path a-b-c-d_x whose cheap
// plan costs 3 while a risky plan materializes bc and abc for 26, followed
// (when `include_tail` is set) by a final sharing (a,b,g) that tempts the
// planner into computing the never-again-used ab for 35.
//
//  * Without the "- Σ rg_j(s')" subtraction, the residual of the sharing
//    that takes the bc/abc risk is over-counted into ab's pending regret,
//    and the tail sharing takes an unrewarded 35-dollar risk.
//  * Without the 1/(m-1) factor, the combined bc+abc incentive doubles and
//    the risk is taken around x = 5 instead of x = 9 — too early to pay
//    off on short sequences.
Scenario MakeEquationOneTrap(int n, bool include_tail);

}  // namespace dsm

#endif  // DSM_WORKLOAD_ADVERSARIAL_H_
