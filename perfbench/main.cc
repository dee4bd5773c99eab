// cflbench: runs one benchmark workload and prints its measurements as one
// JSON line (see README.md in this directory).
//
//   cflbench --workload prepare_cold|enum_deep|serve_churn --seed N
//            --seconds S --trace 0|1 --out-dir DIR [--corrupt-reference]
//            [--calibrate]
//
// With --trace 1 the run records spans around its calls into each module
// and writes them to DIR/trace-<workload>-<seed>.jsonl; each span name's
// self time is reported as metric self_ms.<name>. Exit status: 0 when
// every answer was correct, 1 when one was not, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "kernels/kernels.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "cflbench: %s\nusage: cflbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--corrupt-reference] "
               "[--calibrate]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cflbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else if (a == "--calibrate") {
      o.calibrate = true;
    } else if (!has_value) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--out-dir") {
      o.out_dir = argv[++i];
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (o.seconds <= 0) return Usage("--seconds must be positive");

  cflbench::Tracer tracer;
  if (o.trace) tracer.Enable();
  cflbench::Report rep;
  if (o.workload == "prepare_cold") {
    rep = cflbench::RunPrepareCold(o, tracer);
  } else if (o.workload == "enum_deep") {
    rep = cflbench::RunEnumDeep(o, tracer);
  } else if (o.workload == "serve_churn") {
    rep = cflbench::RunServeChurn(o, tracer);
  } else {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }

  rep.info["isa"] = cfl::kernels::IsaName(cfl::kernels::ActiveIsa());
  rep.info["build_type"] = CFLBENCH_BUILD_TYPE;
  rep.info["compiler"] = CFLBENCH_COMPILER;
  // perfbench/CMakeLists.txt always builds with stats on.
  rep.info["cfl_stats"] = "ON";
  if (o.trace) {
    const std::string path = o.out_dir + "/trace-" + o.workload + "-" +
                             std::to_string(o.seed) + ".jsonl";
    if (!tracer.WriteJsonl(path)) rep.Fail("cannot write " + path);
    rep.info["trace_file"] = path;
    rep.info["spans"] = std::to_string(tracer.size());
    for (const auto& [name, st] : tracer.SelfTimes()) {
      rep.Set("self_ms." + name, st.first * 1e3, "ms");
      rep.info["spans." + name] = std::to_string(st.second);
    }
  }
  std::printf("%s\n", cflbench::ReportJson(rep).c_str());
  return rep.failed == 0 ? 0 : 1;
}
