// history_audit: the consistency checkers as a command-line playground.
//
//   ./history_audit --mode=demo
//   ./history_audit --mode=random  [--mops=12] [--processes=4]
//                   [--objects=3] [--trials=20] [--seed=1]
//   ./history_audit --mode=perturbed [--rewires=2] ...same flags...
//   ./history_audit --file=history.txt [--dump-example=path]
//
// demo      — walks through the paper's Figure 2/3 example (H1, its
//             illegal extension S1, the ~rw edge that forbids it).
// random    — generates admissible-by-construction histories, perturbs
//             nothing, and shows the three conditions' verdicts plus
//             exact-checker effort.
// perturbed — rewires reads-from links and reports how often each
//             consistency condition catches the corruption (a miniature
//             fault-injection study).
// --file    — loads a history in the text format of core/serialize.hpp
//             and reports all three verdicts plus a witness.
// --dump-example writes a commented example file to get started.
#include <cstdio>
#include <string>

#include "core/admissibility.hpp"
#include "core/fast_check.hpp"
#include "core/generate.hpp"
#include "core/legality.hpp"
#include "core/relations.hpp"
#include "core/serialize.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace mocc;
using core::Condition;

const char* verdict(bool admissible) { return admissible ? "yes" : "NO"; }

int run_demo() {
  std::printf("== Figure 2: history H1 under WW-constraint ==\n\n");
  core::History h(2, 2);
  const auto alpha = h.add(core::MOperation(
      0, {core::Operation::read(0, 0, core::kInitialMOp), core::Operation::write(1, 2)},
      1, 2, "alpha"));
  const auto gamma =
      h.add(core::MOperation(1, {core::Operation::write(0, 1)}, 1, 4, "gamma"));
  const auto beta =
      h.add(core::MOperation(0, {core::Operation::read(1, 2, alpha)}, 5, 6, "beta"));
  const auto delta =
      h.add(core::MOperation(1, {core::Operation::write(1, 3)}, 5, 8, "delta"));
  std::printf("%s\n", h.to_string().c_str());

  auto base = core::base_order(h, Condition::kMSequentialConsistency);
  base.add(alpha, gamma);
  base.add(gamma, delta);
  std::printf("WW-constraint edges: alpha -> gamma -> delta\n\n");

  const auto closed = base.transitive_closure();
  std::printf("H1 legal?            %s\n",
              core::legal(h, closed) ? "yes" : "no");
  const auto rw = core::rw_precedence(h, closed);
  std::printf("~rw edge beta->delta? %s   (interfere(beta, alpha, delta))\n",
              rw.has(beta, delta) ? "yes" : "no");

  const std::vector<core::MOpId> s1{alpha, gamma, delta, beta};
  std::printf("S1 = alpha gamma delta beta legal? %s   (Figure 3's point)\n",
              core::is_legal_sequential_order(h, s1) ? "yes" : "no");

  const auto fast = core::fast_check(h, base, core::Constraint::kWW);
  std::printf("Theorem 7: admissible? %s", verdict(fast.admissible));
  if (fast.witness) {
    std::printf("   witness:");
    for (const auto id : *fast.witness) {
      std::printf(" %s", h.mop(id).label().c_str());
    }
  }
  std::printf("\n");
  return 0;
}

int run_random(const util::CliArgs& args) {
  core::GeneratorParams params;
  params.num_mops = static_cast<std::size_t>(args.get_int("mops", 12));
  params.num_processes = static_cast<std::size_t>(args.get_int("processes", 4));
  params.num_objects = static_cast<std::size_t>(args.get_int("objects", 3));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 20));
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  util::Table table({"trial", "m-SC", "m-normal", "m-lin", "states(m-lin)"});
  for (std::size_t t = 0; t < trials; ++t) {
    const auto h = core::generate_admissible_history(params, rng);
    const auto msc = core::check_m_sequentially_consistent(h);
    const auto mnorm = core::check_m_normal(h);
    const auto mlin = core::check_m_linearizable(h);
    table.add_row({std::to_string(t), verdict(msc.admissible),
                   verdict(mnorm.admissible), verdict(mlin.admissible),
                   std::to_string(mlin.states_visited)});
  }
  table.print();
  std::printf("\n(admissible-by-construction: every row should be yes/yes/yes)\n");
  return 0;
}

int run_perturbed(const util::CliArgs& args) {
  core::GeneratorParams params;
  params.num_mops = static_cast<std::size_t>(args.get_int("mops", 12));
  params.num_processes = static_cast<std::size_t>(args.get_int("processes", 4));
  params.num_objects = static_cast<std::size_t>(args.get_int("objects", 3));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 50));
  const auto rewires = static_cast<std::size_t>(args.get_int("rewires", 2));
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  std::size_t caught_msc = 0;
  std::size_t caught_mnorm = 0;
  std::size_t caught_mlin = 0;
  std::size_t actually_perturbed = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    auto h = core::generate_admissible_history(params, rng);
    if (core::perturb_reads_from(h, rng, rewires) == 0) continue;
    ++actually_perturbed;
    if (!core::check_m_sequentially_consistent(h).admissible) ++caught_msc;
    if (!core::check_m_normal(h).admissible) ++caught_mnorm;
    if (!core::check_m_linearizable(h).admissible) ++caught_mlin;
  }
  std::printf("fault injection: %zu histories, %zu reads rewired each\n",
              actually_perturbed, rewires);
  util::Table table({"condition", "corruptions caught", "rate"});
  auto rate = [&](std::size_t caught) {
    return util::Table::num(100.0 * static_cast<double>(caught) /
                                static_cast<double>(actually_perturbed),
                            1) +
           "%";
  };
  table.add_row({"m-sequential consistency", std::to_string(caught_msc),
                 rate(caught_msc)});
  table.add_row({"m-normality", std::to_string(caught_mnorm), rate(caught_mnorm)});
  table.add_row({"m-linearizability", std::to_string(caught_mlin), rate(caught_mlin)});
  table.print();
  std::printf("\n(stronger conditions catch at least as much: "
              "m-lin >= m-normal >= m-SC)\n");
  return 0;
}

int run_file(const std::string& path) {
  std::string error;
  const auto loaded = core::load_history(path, &error);
  if (!loaded) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const core::History& h = *loaded;
  std::printf("%s\n", h.to_string().c_str());

  util::Table table({"condition", "admissible", "states", "witness"});
  for (const Condition c :
       {Condition::kMSequentialConsistency, Condition::kMNormality,
        Condition::kMLinearizability}) {
    core::AdmissibilityOptions options;
    options.max_states = 20'000'000;
    const auto result = core::check_condition(h, c, options);
    std::string witness = "-";
    if (result.witness) {
      witness.clear();
      for (const auto id : *result.witness) {
        if (!witness.empty()) witness += " ";
        witness += 'm';
        witness += std::to_string(id);
      }
    }
    table.add_row({core::condition_name(c),
                   !result.completed ? "budget exceeded" : verdict(result.admissible),
                   std::to_string(result.states_visited), witness});
  }
  table.print();
  return 0;
}

int dump_example(const std::string& path) {
  // Figure 2's H1 as a starting template.
  core::History h(2, 2);
  const auto alpha = h.add(core::MOperation(
      0, {core::Operation::read(0, 0, core::kInitialMOp), core::Operation::write(1, 2)},
      1, 2, "alpha"));
  h.add(core::MOperation(1, {core::Operation::write(0, 1)}, 1, 4, "gamma"));
  h.add(core::MOperation(0, {core::Operation::read(1, 2, alpha)}, 5, 6, "beta"));
  h.add(core::MOperation(1, {core::Operation::write(1, 3)}, 5, 8, "delta"));
  std::string error;
  if (!core::save_history(h, path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  std::printf("wrote example history (paper Figure 2) to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  if (args.has("dump-example")) {
    return dump_example(args.get_string("dump-example", "history_example.txt"));
  }
  if (args.has("file")) return run_file(args.get_string("file", ""));
  const std::string mode = args.get_string("mode", "demo");
  if (mode == "demo") return run_demo();
  if (mode == "random") return run_random(args);
  if (mode == "perturbed") return run_perturbed(args);
  std::fprintf(stderr, "unknown --mode=%s (demo|random|perturbed)\n", mode.c_str());
  return 2;
}
