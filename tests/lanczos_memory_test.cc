// Lanczos runs in O(n) memory: it keeps three Krylov vectors and
// regenerates the rest in a second pass instead of storing the k×n
// basis. This binary replaces the global operator new/delete with a
// counting pair that tracks live and peak heap bytes, then checks the
// peak of a whole λ computation on a ≥ 100k-node graph against a small
// multiple of n doubles, and checks that it does not grow with the
// Krylov dimension k. A stored basis (k·n doubles, 150+ here) fails both.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>

#include "graph/generators.h"
#include "linalg/spectral.h"

namespace {

std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

// Each block carries its size in a header of max_align_t size, so the
// returned pointer keeps operator new's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* CountedAllocate(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  const std::size_t live = g_live_bytes.fetch_add(size) + size;
  std::size_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void CountedRelease(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*static_cast<std::size_t*>(block));
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAllocate(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { CountedRelease(p); }
void operator delete[](void* p) noexcept { CountedRelease(p); }
void operator delete(void* p, std::size_t) noexcept { CountedRelease(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedRelease(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedRelease(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedRelease(p);
}

namespace geer {
namespace {

// Peak heap bytes allocated by `fn` above what was live when it started.
std::size_t PeakHeapDuring(const std::function<void()>& fn) {
  const std::size_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  fn();
  const std::size_t peak = g_peak_bytes.load() - base;
  std::printf("  peak heap: %zu bytes\n", peak);
  return peak;
}

// A slow-mixing ring lattice with few shortcuts: its λ₂ sits close to 1
// inside a clustered spectrum, so Lanczos needs a long Krylov run.
const Graph& LargeSparseGraph() {
  static const Graph graph = gen::WattsStrogatz(120000, 3, 0.05, 17);
  return graph;
}

// Everything a λ computation keeps of size n — the operator's weights,
// top eigenvector, row order and scratch, the deflation vector, the live
// Krylov vectors, the regeneration pass's vectors and the two Ritz
// vectors — is about 17 doubles per node; a stored basis alone is k
// doubles per node.
constexpr std::size_t kDoublesPerNode = 20;

TEST(LanczosMemoryTest, PeakHeapIsLinearInNodes) {
  const Graph& g = LargeSparseGraph();
  const std::size_t n = g.NumNodes();
  ASSERT_GE(n, 100000u);
  SpectralBounds bounds;
  const std::size_t peak =
      PeakHeapDuring([&] { bounds = ComputeSpectralBounds(g); });
  EXPECT_GE(bounds.lanczos_iterations, 150);
  EXPECT_GT(bounds.lambda, 0.9);
  EXPECT_LT(peak, kDoublesPerNode * n * sizeof(double))
      << "peak " << peak << " B for n = " << n << ", k = "
      << bounds.lanczos_iterations;
}

// The peak does not depend on the Krylov dimension: 60 and 300 steps
// differ only by the O(k) tridiagonal coefficients.
TEST(LanczosMemoryTest, PeakHeapDoesNotGrowWithKrylovDimension) {
  const Graph& g = LargeSparseGraph();
  SpectralOptions short_run;
  short_run.max_iterations = 60;
  SpectralBounds short_bounds;
  SpectralBounds long_bounds;
  const std::size_t short_peak = PeakHeapDuring(
      [&] { short_bounds = ComputeSpectralBounds(g, short_run); });
  const std::size_t long_peak =
      PeakHeapDuring([&] { long_bounds = ComputeSpectralBounds(g); });
  EXPECT_EQ(short_bounds.lanczos_iterations, 60);
  EXPECT_GE(long_bounds.lanczos_iterations, 150);
  EXPECT_LT(long_peak, short_peak + 64 * 1024)
      << "k = 60: " << short_peak << " B, k = "
      << long_bounds.lanczos_iterations << ": " << long_peak << " B";
}

// The Ritz-vector (warm-chain) path: its cold fallback runs the full
// budget and also builds T_k's k×k eigenvector matrix, O(k²) but not
// O(k·n).
TEST(LanczosMemoryTest, RitzVectorRunPeakIsLinearInNodes) {
  const Graph& g = LargeSparseGraph();
  const std::size_t n = g.NumNodes();
  SpectralWarmState state;
  SpectralBounds bounds;
  const std::size_t peak = PeakHeapDuring(
      [&] { bounds = ComputeSpectralBoundsWarmT<UnitWeight>(g, 1, &state); });
  ASSERT_TRUE(state.valid);
  const std::size_t k = static_cast<std::size_t>(bounds.lanczos_iterations);
  EXPECT_GE(k, 150u);
  EXPECT_LT(peak, (kDoublesPerNode * n + 3 * k * k) * sizeof(double))
      << "peak " << peak << " B for n = " << n << ", k = " << k;
}

}  // namespace
}  // namespace geer
