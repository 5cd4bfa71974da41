#include "core/batch.h"

#include <algorithm>

namespace vcoadc::core {

BatchRunner::BatchRunner(const BatchOptions& opts)
    : opts_(opts), threads_(resolve_threads(opts.threads)) {}

BatchRunner::BatchRunner(int threads) : BatchRunner(BatchOptions{threads}) {}

BatchRunner::BatchRunner(const ExecContext& ctx) : BatchRunner(ctx.threads) {}

int BatchRunner::resolve_threads(int threads) {
  if (threads > 0) return threads;
  return static_cast<int>(util::ThreadPool::hardware_workers());
}

}  // namespace vcoadc::core
