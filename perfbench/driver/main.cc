// qf_perfbench: runs one benchmark workload in this process and writes the
// raw run record (statement timings, spans, counters' source text, checks)
// as JSON. perfbench/run.py builds it, runs it, and turns the record into
// metrics.
//
//   qf_perfbench --workload mine_mix|served_append|spill_reopen --seed N
//                --seconds S --trace 0|1 --out record.json [--tiny]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "driver/common.h"

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.out.empty() || opt.seconds <= 0) {
    std::fprintf(stderr, "usage: qf_perfbench --workload W --seed N "
                         "--seconds S --trace 0|1 --out PATH [--tiny]\n");
    return 2;
  }

  perfbench::RunRecord rec;
  rec.kernel_ms.push_back(perfbench::KernelMs());
  if (opt.workload == "mine_mix") {
    perfbench::RunMineMix(opt, rec);
  } else if (opt.workload == "served_append") {
    perfbench::RunServedAppend(opt, rec);
  } else if (opt.workload == "spill_reopen") {
    perfbench::RunSpillReopen(opt, rec);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  rec.peak_rss_mb = perfbench::PeakRssMb();
  rec.kernel_ms.push_back(perfbench::KernelMs());
  if (!perfbench::WriteRecord(opt, rec, opt.out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return 0;
}
