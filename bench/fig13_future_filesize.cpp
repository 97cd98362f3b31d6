/**
 * @file
 * Figure 13: modeled gain of user-level communication on
 * next-generation systems vs. average file size and nodes, at a 90%
 * hit rate.
 */

#include <iostream>

#include "model_grids.hpp"

using namespace press;

int
main()
{
    std::cout << "== Figure 13: future-system user-level gain (model), "
                 "hit rate 90% ==\n\n";
    bench::fileSizeGrid([] {
        return std::pair{model::future(model::ModelParams::viaRmwZc()),
                         model::future(model::ModelParams::tcp())};
    });
    std::cout << "\nPaper (Fig. 13): throughput improvement provided by "
                 "user-level communication can reach\n~1.55 for small "
                 "files and large clusters on next-generation "
                 "systems.\n";
    return 0;
}
