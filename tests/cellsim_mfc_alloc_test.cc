// Legal DMA commands must not touch the heap: Mfc::validate runs once
// per simulated command (millions per trace-driven run), so any
// allocation on its legal path is paid on every command. This binary
// replaces the global operator new to count allocations, which is why
// it stands apart from cellsim_mfc_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cellsim/memory.h"
#include "cellsim/mfc.h"
#include "cellsim/spec.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cellsweep::cell {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(MfcAllocation, LegalCommandsAllocateNothing) {
  const CellSpec spec;
  Eib eib(spec);
  Mic mic(spec);
  Mfc mfc(spec, &eib, &mic, "mfc0");

  DmaRequest list_get;  // one DMA-list command, ragged 240-byte tail
  list_get.total_bytes = 31 * 512 + 240;
  list_get.element_bytes = 512;
  list_get.tag = 1;
  DmaRequest row_put;  // individual per-row commands
  row_put.dir = DmaDir::kPut;
  row_put.total_bytes = 64 * 400;
  row_put.element_bytes = 400;
  row_put.alignment = 16;
  row_put.as_list = false;
  row_put.banks_touched = 4;
  row_put.tag = 2;
  DmaRequest ls_put = row_put;  // SPE-to-SPE forward over the EIB
  ls_put.ls_to_ls = true;
  ls_put.as_list = true;
  ls_put.tag = 3;
  DmaRequest scalar_get;  // naturally aligned sub-quadword transfer
  scalar_get.total_bytes = 8;
  scalar_get.element_bytes = 16;

  const std::size_t before = allocations();
  sim::Tick now = 0;
  for (int i = 0; i < 64; ++i) {
    for (const DmaRequest* r : {&list_get, &row_put, &ls_put, &scalar_get}) {
      mfc.validate(*r);
      now = mfc.submit(now, *r).issue_done;
    }
  }
  const std::size_t during = allocations() - before;
  EXPECT_EQ(during, 0u);
  EXPECT_EQ(mfc.commands(), 64u * (1 + 64 + 1 + 1));
}

TEST(MfcAllocation, CounterSeesTheErrorText) {
  // Guards the test above against a counter that never fires: the
  // message of an illegal command is heap-allocated.
  const CellSpec spec;
  Eib eib(spec);
  Mic mic(spec);
  const Mfc mfc(spec, &eib, &mic, "mfc0");
  DmaRequest bad;
  bad.total_bytes = 12;
  bad.element_bytes = 12;
  const std::size_t before = allocations();
  EXPECT_THROW(mfc.validate(bad), DmaError);
  EXPECT_GT(allocations() - before, 0u);
}

}  // namespace
}  // namespace cellsweep::cell
