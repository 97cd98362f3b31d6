/**
 * @file
 * Figure 12: modeled gain of user-level communication on
 * next-generation systems (zero-copy client TCP halving mu_m, halved
 * TCP fixed costs, gigabit external links) vs. hit rate and nodes,
 * S = 16 KB.
 *
 * Paper shape: under the best circumstances the user-level gain
 * reaches ~1.5-1.55 (Section 4.2: "can reach 55%").
 */

#include <iostream>

#include "model_grids.hpp"

using namespace press;

int
main()
{
    std::cout << "== Figure 12: future-system user-level gain (model), "
                 "S = 16 KB ==\n\n";
    bench::hitRateGrid(16e3, [] {
        return std::pair{model::future(model::ModelParams::viaRmwZc()),
                         model::future(model::ModelParams::tcp())};
    });
    std::cout << "\nPaper (Fig. 12): higher gains than Fig. 8; with "
                 "Fig. 13, user-level communication can\nreach ~1.55 on "
                 "next-generation systems.\n";
    return 0;
}
