// `threads = 0` means serial: no kernel may fall back to a hidden pool.
//
// The check counts this process's threads in /proc/self/task, so it lives
// in its own test binary: no earlier test in the same process can have
// started threads that would hide (or fake) a leak.

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>

#include "engine/holim_engine.h"
#include "graph/generators.h"
#include "model/influence_params.h"

namespace holim {
namespace {

std::size_t ThreadCount() {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) return 0;
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(tasks),
                    std::filesystem::directory_iterator()));
}

TEST(SerialThreadsTest, ZeroThreadSolvesStartNoThreads) {
  if (ThreadCount() == 0) GTEST_SKIP() << "no /proc/self/task";
  const Graph graph = GenerateBarabasiAlbert(500, 3, 4).ValueOrDie();
  const InfluenceParams params = MakeUniformIc(graph, 0.1);
  const std::size_t before = ThreadCount();

  HolimEngine engine(graph);
  SolveRequest imm;
  imm.algorithm = "imm";
  imm.k = 5;
  imm.params = &params;
  imm.epsilon = 0.5;
  imm.max_theta = 20000;
  imm.threads = 0;
  imm.evaluate_spread = false;
  auto solved = engine.Solve(imm);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(ThreadCount(), before) << "IMM RR generation started threads";

  SolveRequest evaluate = imm;
  evaluate.query = QueryKind::kEvaluate;
  evaluate.given_seeds = solved->seeds;
  evaluate.mc = 300;
  evaluate.evaluate_spread = true;
  auto evaluated = engine.Solve(evaluate);
  ASSERT_TRUE(evaluated.ok()) << evaluated.status().ToString();
  EXPECT_GT(evaluated->spread, 0.0);
  EXPECT_EQ(ThreadCount(), before) << "MC evaluation started threads";
}

}  // namespace
}  // namespace holim
