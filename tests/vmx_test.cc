// Unit tests for src/vmx: EPT, hypervisor grants/EPT faults, vCPU transition
// accounting, posted-IPI fabric.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>

#include "src/util/bitops.h"
#include "src/vmx/ept.h"
#include "src/vmx/hypervisor.h"
#include "src/vmx/ipi.h"
#include "src/vmx/vcpu.h"

namespace aquila {
namespace {

TEST(EptTest, MapTranslateUnmap) {
  ExtendedPageTable ept;
  ASSERT_TRUE(ept.Map(0x100000, 0x500000, 0x10000, kPageSize).ok());
  uint64_t hpa = 0;
  EXPECT_TRUE(ept.Translate(0x100000, &hpa));
  EXPECT_EQ(hpa, 0x500000u);
  EXPECT_TRUE(ept.Translate(0x100000 + 0x8123, &hpa));
  EXPECT_EQ(hpa, 0x508123u);
  EXPECT_FALSE(ept.Translate(0x100000 + 0x10000, &hpa));
  EXPECT_FALSE(ept.Translate(0x0, &hpa));
  EXPECT_EQ(ept.MappedBytes(), 0x10000u);
  ASSERT_TRUE(ept.Unmap(0x100000, 0x10000).ok());
  EXPECT_FALSE(ept.Translate(0x100000, &hpa));
  EXPECT_EQ(ept.MappedBytes(), 0u);
}

TEST(EptTest, RejectsOverlap) {
  ExtendedPageTable ept;
  ASSERT_TRUE(ept.Map(0x10000, 0, 0x10000, kPageSize).ok());
  EXPECT_FALSE(ept.Map(0x18000, 0, 0x10000, kPageSize).ok());
  EXPECT_FALSE(ept.Map(0x8000, 0, 0x10000, kPageSize).ok());
  EXPECT_TRUE(ept.Map(0x20000, 0, 0x1000, kPageSize).ok());
}

TEST(EptTest, RejectsMisaligned) {
  ExtendedPageTable ept;
  EXPECT_FALSE(ept.Map(0x100, 0, 0x1000, kPageSize).ok());
  EXPECT_FALSE(ept.Map(0x1000, 0, 0x100, kPageSize).ok());
  EXPECT_FALSE(ept.Map(kPageSize, 0, kHugePage2M, kHugePage2M).ok());  // gpa misaligned
}

TEST(EptTest, HugePages) {
  ExtendedPageTable ept;
  ASSERT_TRUE(ept.Map(kHugePage1G, 0, kHugePage1G, kHugePage1G).ok());
  uint64_t hpa = 0;
  EXPECT_TRUE(ept.Translate(kHugePage1G + 12345, &hpa));
  EXPECT_EQ(hpa, 12345u);
  EXPECT_EQ(ept.EntryCount(), 1u);
}

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest() {
    Hypervisor::Options options;
    options.host_memory_bytes = 64ull << 20;
    options.chunk_size = 1ull << 20;
    hv_ = std::make_unique<Hypervisor>(options);
    guest_ = hv_->CreateGuest();
  }

  std::unique_ptr<Hypervisor> hv_;
  int guest_;
};

TEST(HypervisorLimitTest, FileSizeLimitFallsBackToAnonymousMemory) {
  // Under a file-size limit below host_memory_bytes, sizing the memfd would
  // raise SIGXFSZ. The limit is lowered only in a forked child, which must
  // construct a usable hypervisor on anonymous memory and exit cleanly.
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    struct rlimit limit;
    if (getrlimit(RLIMIT_FSIZE, &limit) != 0) {
      _exit(2);
    }
    limit.rlim_cur = 1 << 20;
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) {
      _exit(3);
    }
    Hypervisor::Options options;
    options.host_memory_bytes = 64ull << 20;
    options.chunk_size = 1ull << 20;
    Hypervisor hv(options);
    uint8_t* mem = hv.HostPtr((32ull << 20) + 5);
    *mem = 0x5A;
    _exit(hv.backing_fd() < 0 && *mem == 0x5A ? 0 : 4);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(HypervisorTest, GrantAndLazyBacking) {
  Vcpu vcpu(0);
  StatusOr<uint64_t> gpa = hv_->VmcallGrantGpaRange(vcpu, guest_, 4ull << 20);
  ASSERT_TRUE(gpa.ok());
  EXPECT_EQ(hv_->granted_bytes(guest_), 4ull << 20);
  EXPECT_EQ(hv_->backed_bytes(guest_), 0u);  // lazy
  EXPECT_EQ(vcpu.counters().vmcalls, 1u);

  // First touch raises an EPT fault and installs backing for one chunk.
  uint8_t* p = hv_->ResolveGpa(vcpu, guest_, *gpa + 123);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(vcpu.counters().ept_faults, 1u);
  EXPECT_EQ(hv_->backed_bytes(guest_), 1ull << 20);

  // Same chunk: no further fault.
  uint8_t* q = hv_->ResolveGpa(vcpu, guest_, *gpa + 4096);
  EXPECT_EQ(vcpu.counters().ept_faults, 1u);
  EXPECT_EQ(q, p - 123 + 4096);

  // Data written through one resolution is visible through another.
  std::memset(p, 0xAB, 64);
  EXPECT_EQ(hv_->ResolveGpa(vcpu, guest_, *gpa + 123)[0], 0xAB);
}

TEST_F(HypervisorTest, EptFaultOutsideGrantFails) {
  Vcpu vcpu(0);
  Status status = hv_->HandleEptFault(vcpu, guest_, 0xdeadbeef000ull);
  EXPECT_FALSE(status.ok());
}

TEST_F(HypervisorTest, ReleaseReturnsMemory) {
  Vcpu vcpu(0);
  StatusOr<uint64_t> gpa = hv_->VmcallGrantGpaRange(vcpu, guest_, 2ull << 20);
  ASSERT_TRUE(gpa.ok());
  hv_->ResolveGpa(vcpu, guest_, *gpa);
  hv_->ResolveGpa(vcpu, guest_, *gpa + (1ull << 20));
  uint64_t allocated = hv_->host_allocated_bytes();
  EXPECT_EQ(allocated, 2ull << 20);
  ASSERT_TRUE(hv_->VmcallReleaseGpaRange(vcpu, guest_, *gpa, 2ull << 20).ok());
  EXPECT_EQ(hv_->granted_bytes(guest_), 0u);
  EXPECT_EQ(hv_->host_allocated_bytes(), 0u);
  // Released GPA no longer resolves.
  EXPECT_FALSE(hv_->HandleEptFault(vcpu, guest_, *gpa).ok());
}

TEST_F(HypervisorTest, GrantsAreDisjoint) {
  Vcpu vcpu(0);
  StatusOr<uint64_t> a = hv_->VmcallGrantGpaRange(vcpu, guest_, 1ull << 20);
  StatusOr<uint64_t> b = hv_->VmcallGrantGpaRange(vcpu, guest_, 1ull << 20);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(*b, *a + (1ull << 20));
}

TEST(VcpuTest, TransitionCostsMatchModel) {
  const CostModel& costs = GlobalCostModel();
  Vcpu vcpu(0);
  vcpu.ChargeRing3Trap();
  EXPECT_EQ(vcpu.clock().Now(), costs.ring3_trap);
  uint64_t before = vcpu.clock().Now();
  vcpu.ChargeRing0Exception();
  EXPECT_EQ(vcpu.clock().Now() - before, costs.ring0_exception);
  EXPECT_EQ(vcpu.counters().ring3_traps, 1u);
  EXPECT_EQ(vcpu.counters().ring0_exceptions, 1u);
  // The paper's headline: the ring-0 exception is ~2.33x cheaper.
  EXPECT_LT(costs.ring0_exception * 2, costs.ring3_trap);
}

TEST(IpiFabricTest, SendChargesSenderAndTarget) {
  const CostModel& costs = GlobalCostModel();
  PostedIpiFabric fabric(PostedIpiFabric::SendPath::kVmexitProtected);
  SimClock sender, target;
  CoreRegistry::SetCurrentCoreForTest(0);
  fabric.Send(sender, /*target_core=*/1, /*handler_cycles=*/500);
  EXPECT_EQ(sender.Now(), costs.ipi_send_vmexit);
  EXPECT_EQ(target.Now(), 0u);  // not yet absorbed
  fabric.Absorb(target, 1);
  EXPECT_EQ(target.Now(), costs.ipi_receive + 500);
  fabric.Absorb(target, 1);  // idempotent once drained
  EXPECT_EQ(target.Now(), costs.ipi_receive + 500);
  EXPECT_EQ(fabric.TotalSent(), 1u);
}

TEST(IpiFabricTest, PostedSendIsCheaper) {
  const CostModel& costs = GlobalCostModel();
  PostedIpiFabric fabric(PostedIpiFabric::SendPath::kPosted);
  SimClock sender;
  CoreRegistry::SetCurrentCoreForTest(0);
  fabric.Send(sender, 1, 0);
  EXPECT_EQ(sender.Now(), costs.ipi_send_posted);
}

TEST(IpiFabricTest, RateLimitThrottlesSender) {
  PostedIpiFabric fabric(PostedIpiFabric::SendPath::kVmexitProtected);
  fabric.set_rate_limit_per_ms(10);
  SimClock sender;
  CoreRegistry::SetCurrentCoreForTest(0);
  for (int i = 0; i < 25; i++) {
    fabric.Send(sender, 1, 0);
  }
  EXPECT_GE(fabric.TotalThrottled(), 1u);
  // Throttled sends pushed the clock past at least one full window.
  EXPECT_GT(sender.Now(), GlobalCostModel().cycles_per_us * 1000);
}

}  // namespace
}  // namespace aquila
