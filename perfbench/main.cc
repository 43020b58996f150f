/**
 * @file
 * perfbench: run one benchmark workload and report its metrics.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--spans FILE]
 *
 * Prints a human-readable report, then one JSON line (the last line
 * of stdout) with correct/attempted/failed and the metrics: the
 * end-to-end ones with --trace 0, the per-layer ones with --trace 1.
 * --spans writes the traced run's spans as Chrome trace-event JSON.
 * Exit code 0 when every experiment passed its checks, 1 when one
 * failed, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "Bench.hh"

namespace
{

int
usage(const char *argv0, const std::string &problem)
{
    std::fprintf(stderr,
                 "%s\nusage: %s --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans FILE]\n"
                 "workloads:",
                 problem.c_str(), argv0);
    for (const perfbench::WorkloadDef &w : perfbench::workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseNumber(const std::string &s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && *end == '\0' && out >= 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans_path;
    perfbench::RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i], value;
        if (const auto eq = key.find('='); eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return usage(argv[0], "missing value for " + key);
        }
        double x = 0;
        if (key == "--workload") {
            workload = value;
        } else if (key == "--spans") {
            spans_path = value;
        } else if (key == "--seed") {
            char *end = nullptr;
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || value[0] == '-')
                return usage(argv[0], "bad seed '" + value + "'");
        } else if (!parseNumber(value, x)) {
            return usage(argv[0], "bad value '" + value + "' for " + key);
        } else if (key == "--seconds") {
            opts.seconds = x;
        } else if (key == "--trace") {
            opts.trace = x != 0;
        } else {
            return usage(argv[0], "unknown argument " + key);
        }
    }
    const perfbench::WorkloadDef *w = perfbench::findWorkload(workload);
    if (!w)
        return usage(argv[0], "unknown workload '" + workload + "'");

    const perfbench::WorkloadReport r = perfbench::runWorkload(*w, opts);
    if (!spans_path.empty()) {
        std::ofstream f(spans_path);
        perfbench::writeChromeTrace(f, r.spans);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
            return 1;
        }
    }
    perfbench::printReport(std::cout, r);
    perfbench::printResultLine(std::cout, r);
    return r.failed == 0 ? 0 : 1;
}
