#include "src/common/exec_policy.hpp"

#include <algorithm>

namespace colscore {

ExecPolicy ExecPolicy::serial() { return ExecPolicy(nullptr, 1); }

ExecPolicy ExecPolicy::pool(ThreadPool& pool) {
  return ExecPolicy(&pool, std::max<std::size_t>(1, pool.thread_count()));
}

RunWorkspace& ExecPolicy::workspace() const { return RunWorkspace::current(); }

}  // namespace colscore
