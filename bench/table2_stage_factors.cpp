// Reproduces Table II: "Per-pipeline-stage scalability factors".
//
// The paper derived a_i, b_i, c_i "by linear regression of offline
// profiling data" over inputs of 1-9 GB and a range of thread counts, and
// found the simple models "represented the profiling data very
// accurately". We re-run that loop: profile the ground-truth model with
// multiplicative measurement noise, regress, and print paper vs. fitted
// coefficients side by side.
//
// Flags: --noise=SIGMA (default 0.02), --reps=N (profiling repetitions,
//        default 3), --seed=N, --csv=PATH

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "scan/gatk/profiler.hpp"
#include "scan/gatk/regression.hpp"

using namespace scan;
using namespace scan::gatk;

static int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto obs_session = bench::MakeObsSession(flags);
  ProfileSpec spec;
  spec.noise_stddev = flags.GetDouble("noise", 0.02);
  spec.repetitions = flags.GetInt("reps", 3);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const bench::TableOutput output(flags);
  flags.RejectUnread();

  const PipelineModel truth = PipelineModel::PaperGatk();

  std::cout << "Table II: per-pipeline-stage scalability factors\n"
            << "profiling sweep: sizes 1-9 GB x threads {1,2,4,8,16} x "
            << spec.repetitions << " reps, noise sigma "
            << spec.noise_stddev << "\n\n";

  ThreadPool pool;
  const auto observations = ProfilePipelineParallel(truth, spec, seed, pool);
  const auto fits = FitAllStages(truth.stage_count(), observations);
  const PipelineModel fitted = ModelFromFits(fits);

  CsvTable table({"stage", "a_paper", "a_fit", "b_paper", "b_fit", "c_paper",
                  "c_fit", "r_squared", "samples"});
  for (std::size_t i = 0; i < truth.stage_count(); ++i) {
    table.AddRow({std::to_string(i + 1), CsvTable::Num(truth.stage(i).a),
                  CsvTable::Num(fitted.stage(i).a),
                  CsvTable::Num(truth.stage(i).b),
                  CsvTable::Num(fitted.stage(i).b),
                  CsvTable::Num(truth.stage(i).c),
                  CsvTable::Num(fitted.stage(i).c),
                  CsvTable::Num(fits[i].r_squared),
                  std::to_string(fits[i].single_thread_samples +
                                 fits[i].multi_thread_samples)});
  }
  bench::Emit(table, output);

  std::cout << "\nmax |coefficient error| = "
            << CsvTable::Num(MaxCoefficientError(truth, fitted))
            << "  (paper: 'these simple models represented the profiling "
               "data very accurately')\n"
            << "total observations: " << observations.size() << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return scan::bench::RunMain(Main, argc, argv);
}
