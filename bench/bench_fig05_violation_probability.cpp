// Fig. 4 + Fig. 5: violation probability curves and the average-VP choice.
//
// Fig. 5 plots the VP of equivalent requests R1e/R2e/R3e against the work
// achievable by the deadline (omega(D), eq. (1)). Fig. 4 shows the key
// EPRONS-Server idea: the frequency satisfying the *average* VP (f_new)
// sits below the frequency satisfying every request individually (f2),
// while the average miss budget still holds.
#include "bench_common.h"
#include "dvfs/equivalent_queue.h"
#include "dvfs/policies.h"

using namespace eprons;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  bench::print_header(
      "Fig. 4/5 — violation probability vs frequency; average-VP selection",
      "avg-VP frequency f_new < max-VP frequency f2; R1's VP at f2 (~1.8%) "
      "wastes energy against the 5% budget");

  const Scenario scn = bench::make_scenario(cli);
  const ServiceModel& model = scn.service_model();

  // Two queued requests, R2 tighter than R1 relative to its queue position
  // (mirrors the Fig. 4 setup: deadlines D1 < D2 but R2e = R1 + R2).
  std::vector<QueuedRequest> queue;
  QueuedRequest r1;
  r1.id = 1;
  r1.deadline_server = r1.deadline_with_slack = ms(18.0);
  QueuedRequest r2;
  r2.id = 2;
  r2.deadline_server = r2.deadline_with_slack = ms(30.0);
  queue.push_back(r1);
  queue.push_back(r2);
  const std::span<const QueuedRequest> view(queue.data(), queue.size());

  const EquivalentQueue equivalents(&model, queue.size(), 0.0);
  Table table({"freq_GHz", "VP_R1e_%", "VP_R2e_%", "avg_VP_%"});
  table.set_precision(2);
  for (Freq f : model.frequency_grid()) {
    const double vp1 = model.violation_probability(equivalents.at(0), 0.0,
                                                   r1.deadline_with_slack, f);
    const double vp2 = model.violation_probability(equivalents.at(1), 0.0,
                                                   r2.deadline_with_slack, f);
    table.add_row({f, 100.0 * vp1, 100.0 * vp2, 100.0 * (vp1 + vp2) / 2.0});
  }
  table.print(std::cout, fmt);

  StatisticalPolicy rubik_plus(
      &model, {.average_vp = false, .edf = false, .use_network_slack = true});
  StatisticalPolicy eprons(&model);
  const Freq f2 = rubik_plus.select_frequency(0.0, view, 0.0);
  const Freq fnew = eprons.select_frequency(0.0, view, 0.0);
  std::printf("\nmax-VP frequency f2    = %.1f GHz (Rubik+ rule)\n", f2);
  std::printf("avg-VP frequency f_new = %.1f GHz (EPRONS-Server rule)\n",
              fnew);
  std::printf("average VP at f_new    = %.2f%% (budget 5%%)\n",
              100.0 * eprons.average_vp(0.0, view, 0.0, fnew));

  // Fig. 5 view: VP of R1e..R3e as a function of work-done-by-deadline.
  std::printf("\nFig. 5 — VP vs work done at deadline (Mcycles):\n");
  Table fig5({"work_Mcycles", "VP_R1e_%", "VP_R2e_%", "VP_R3e_%"});
  fig5.set_precision(2);
  const double max_work = model.fresh_convolution(3).max_value();
  for (double w = 0.0; w <= max_work; w += max_work / 12.0) {
    fig5.add_row({w / 1e6, 100.0 * model.fresh_convolution(1).ccdf(w),
                  100.0 * model.fresh_convolution(2).ccdf(w),
                  100.0 * model.fresh_convolution(3).ccdf(w)});
  }
  fig5.print(std::cout, fmt);
  return 0;
}
