// perfbench_harness: runs one benchmark workload and prints what it
// measured as one JSON line (raw samples, operation outcomes, reference
// digests). perfbench/run.py builds it, runs it and turns that line into the
// benchmark's result.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --daemon PATH --work DIR [--threads N]
//
// All files the run creates (generated baskets and catalog, the daemon's
// socket and log, the span file of a traced run) go to DIR.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/common.h"

int main(int argc, char** argv) {
  perfbench::Settings settings;
  std::string work;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      settings.workload = value;
    } else if (flag == "--seed") {
      settings.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      settings.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      settings.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--daemon") {
      settings.daemon_path = value;
    } else if (flag == "--work") {
      work = value;
    } else if (flag == "--threads") {
      settings.mt_threads = std::strtoul(value, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (work.empty() || ::chdir(work.c_str()) != 0 || settings.seconds <= 0.0 ||
      settings.mt_threads == 0) {
    std::fprintf(stderr, "usage: see the header of harness/main.cc\n");
    return 2;
  }

  perfbench::Tracer tracer(false);
  perfbench::Output out;
  bool ran = false;
  if (settings.workload == "deep_ibm") {
    ran = perfbench::RunDeepIbm(settings, &tracer, &out);
  } else if (settings.workload == "wide_ibm") {
    ran = perfbench::RunWideIbm(settings, &tracer, &out);
  } else if (settings.workload == "daemon_mix") {
    ran = perfbench::RunDaemonMix(settings, &tracer, &out);
  } else if (settings.workload == "stream_window") {
    ran = perfbench::RunStreamWindow(settings, &tracer, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", settings.workload.c_str());
    return 2;
  }
  if (!ran) return 1;
  if (settings.trace) {
    const std::string path = settings.workload + ".spans.json";
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out.values["trace.spans"] = static_cast<double>(tracer.size());
    for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
      out.values["self." + layer + "_ms"] = ms;
    }
    out.notes["trace_file"] = path;
  }
  std::printf("%s\n", out.ToJson().c_str());
  return 0;
}
