/**
 * @file
 * Interactive exploration of the Section-4 analytical model: given a
 * cluster size, hit rate (or population), and file size, print each
 * configuration's per-station demands, bottleneck, predicted
 * throughput, and the user-level-communication gains.
 *
 * Usage: model_explorer [--nodes N] [--hit H] [--files F]
 *                       [--file-kb S] [--future]
 */

#include <cstring>
#include <iostream>

#include "model/press_model.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace press;
using namespace press::model;

int
main(int argc, char **argv)
{
    int nodes = 8;
    double hit = 0.9;
    double files = 0; // 0 = derive from hit rate
    double file_kb = 16.0;
    bool next_gen = false;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--nodes"))
            nodes = static_cast<int>(
                util::cliInt(argc, argv, i, 1, 4096));
        else if (!std::strcmp(argv[i], "--hit"))
            hit = util::cliDouble(argc, argv, i);
        else if (!std::strcmp(argv[i], "--files"))
            files = util::cliDouble(argc, argv, i);
        else if (!std::strcmp(argv[i], "--file-kb"))
            file_kb = util::cliDouble(argc, argv, i);
        else if (!std::strcmp(argv[i], "--future"))
            next_gen = true;
        else
            util::fatal("unknown option ", argv[i]);
    }

    struct Entry {
        const char *name;
        ModelParams params;
    };
    std::vector<Entry> entries;
    if (next_gen) {
        entries = {{"TCP (future)", future(ModelParams::tcp())},
                   {"VIA RMW+0cp (future)",
                    future(ModelParams::viaRmwZc())}};
    } else {
        entries = {{"TCP", ModelParams::tcp()},
                   {"VIA regular", ModelParams::via()},
                   {"VIA RMW+0cp", ModelParams::viaRmwZc()}};
    }

    std::cout << "Analytical model (Section 4, Table 5): " << nodes
              << " nodes, S = " << file_kb << " KB, "
              << (files > 0 ? "population " + std::to_string(files)
                            : "single-node hit rate " +
                                  util::fmtPct(hit))
              << (next_gen ? ", next-generation system" : "") << "\n\n";

    util::TextTable t;
    t.header({"config", "Hlc", "Q", "CPU us", "disk us", "NIint us",
              "NIext us", "bottleneck", "req/s"});
    double base = 0;
    for (const auto &e : entries) {
        ModelParams p = e.params;
        p.avgFileBytes = file_kb * 1000.0;
        PressModel m(p);
        Prediction pred =
            files > 0 ? m.predictFromPopulation(nodes, files)
                      : m.predict(nodes, hit);
        if (base == 0)
            base = pred.throughput;
        t.row({e.name, util::fmtPct(pred.locality.hlc),
               util::fmtPct(pred.locality.q),
               util::fmtF(pred.demands.cpu * 1e6, 0),
               util::fmtF(pred.demands.disk * 1e6, 0),
               util::fmtF(pred.demands.niInternal * 1e6, 0),
               util::fmtF(pred.demands.niExternal * 1e6, 0),
               pred.demands.bottleneck(),
               util::fmtF(pred.throughput, 0)});
    }
    std::cout << t.render();

    ModelParams a = ModelParams::viaRmwZc();
    ModelParams b = ModelParams::tcp();
    if (next_gen) {
        a = future(a);
        b = future(b);
    }
    a.avgFileBytes = b.avgFileBytes = file_kb * 1000.0;
    double gain = files > 0
                      ? PressModel(a)
                                .predictFromPopulation(nodes, files)
                                .throughput /
                            PressModel(b)
                                .predictFromPopulation(nodes, files)
                                .throughput
                      : improvement(PressModel(a), PressModel(b), nodes,
                                    hit);
    std::cout << "\nuser-level communication gain at this point: "
              << util::fmtF((gain - 1) * 100, 1) << "%\n";
    return 0;
}
