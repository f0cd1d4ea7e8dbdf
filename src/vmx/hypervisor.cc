#include "src/vmx/hypervisor.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstring>

#include "src/util/bitops.h"
#include "src/util/logging.h"

namespace aquila {

namespace {

// Sizes the memfd that backs host memory. False when the process file-size
// limit (ulimit -f) is below `bytes`: growing the file past it would raise
// SIGXFSZ and kill the process, so the caller must not try.
bool SizeMemfd(int fd, uint64_t bytes) {
  struct rlimit limit;
  if (getrlimit(RLIMIT_FSIZE, &limit) == 0 && limit.rlim_cur != RLIM_INFINITY &&
      limit.rlim_cur < bytes) {
    return false;
  }
  return ftruncate(fd, static_cast<off_t>(bytes)) == 0;
}

}  // namespace

Hypervisor::Hypervisor(const Options& options) : options_(options) {
  AQUILA_CHECK(IsPowerOfTwo(options_.chunk_size));
  AQUILA_CHECK(IsAligned(options_.host_memory_bytes, options_.chunk_size));
#if defined(__linux__)
  backing_fd_ = memfd_create("aquila-host-mem", 0);
#endif
  if (backing_fd_ >= 0 && !SizeMemfd(backing_fd_, options_.host_memory_bytes)) {
    close(backing_fd_);
    backing_fd_ = -1;
  }
  if (backing_fd_ >= 0) {
    void* mem = mmap(nullptr, options_.host_memory_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     backing_fd_, 0);
    AQUILA_CHECK(mem != MAP_FAILED);
    host_base_ = static_cast<uint8_t*>(mem);
  } else {
    // Fallback for hosts without memfd, or whose file-size limit is below
    // host_memory_bytes: anonymous memory (trap mode cannot alias frames in
    // this configuration and falls back to soft mode).
    void* mem = mmap(nullptr, options_.host_memory_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    AQUILA_CHECK(mem != MAP_FAILED);
    host_base_ = static_cast<uint8_t*>(mem);
  }
}

Hypervisor::~Hypervisor() {
  if (host_base_ != nullptr) {
    munmap(host_base_, options_.host_memory_bytes);
  }
  if (backing_fd_ >= 0) {
    close(backing_fd_);
  }
}

uint8_t* Hypervisor::HostPtr(uint64_t hpa) {
  AQUILA_DCHECK(hpa < options_.host_memory_bytes);
  return host_base_ + hpa;
}

int Hypervisor::CreateGuest() {
  std::lock_guard<SpinLock> guard(guests_lock_);
  guests_.push_back(std::make_unique<GuestContext>());
  return static_cast<int>(guests_.size() - 1);
}

ExtendedPageTable& Hypervisor::GuestEpt(int guest) {
  std::lock_guard<SpinLock> guard(guests_lock_);
  AQUILA_CHECK(guest >= 0 && guest < static_cast<int>(guests_.size()));
  return guests_[guest]->ept;
}

StatusOr<uint64_t> Hypervisor::AllocHostChunk() {
  {
    std::lock_guard<SpinLock> guard(host_lock_);
    if (!free_chunks_.empty()) {
      uint64_t hpa = free_chunks_.back();
      free_chunks_.pop_back();
      free_chunks_bytes_.fetch_sub(options_.chunk_size, std::memory_order_relaxed);
      return hpa;
    }
  }
  uint64_t hpa = host_next_.fetch_add(options_.chunk_size, std::memory_order_relaxed);
  if (hpa + options_.chunk_size > options_.host_memory_bytes) {
    host_next_.fetch_sub(options_.chunk_size, std::memory_order_relaxed);
    return Status::OutOfSpace("host physical memory exhausted");
  }
  return hpa;
}

void Hypervisor::FreeHostChunk(uint64_t hpa) {
  std::lock_guard<SpinLock> guard(host_lock_);
  free_chunks_.push_back(hpa);
  free_chunks_bytes_.fetch_add(options_.chunk_size, std::memory_order_relaxed);
}

Status Hypervisor::InstallBacking(GuestContext& ctx, uint64_t gpa_chunk) {
  StatusOr<uint64_t> hpa = AllocHostChunk();
  if (!hpa.ok()) {
    return hpa.status();
  }
  Status status = ctx.ept.Map(gpa_chunk, *hpa, options_.chunk_size, options_.chunk_size);
  if (!status.ok()) {
    FreeHostChunk(*hpa);
    return status;
  }
  ctx.backed_bytes += options_.chunk_size;
  return Status::Ok();
}

StatusOr<uint64_t> Hypervisor::VmcallGrantGpaRange(Vcpu& vcpu, int guest, uint64_t bytes) {
  vcpu.ChargeVmcall();
  // The hypervisor is one logical context; vmcall service time is modest but
  // serialized across vCPUs.
  dispatch_.Acquire(vcpu.clock(), CostCategory::kVmExit, 400);

  bytes = AlignUp(bytes, options_.chunk_size);
  GuestContext* ctx;
  {
    std::lock_guard<SpinLock> guard(guests_lock_);
    AQUILA_CHECK(guest >= 0 && guest < static_cast<int>(guests_.size()));
    ctx = guests_[guest].get();
  }
  std::lock_guard<SpinLock> guard(ctx->lock);
  uint64_t gpa = ctx->next_gpa;
  ctx->next_gpa += bytes;
  ctx->grants[gpa] = Grant{gpa, bytes};
  ctx->granted_bytes += bytes;
  if (options_.eager_backing) {
    for (uint64_t off = 0; off < bytes; off += options_.chunk_size) {
      AQUILA_RETURN_IF_ERROR(InstallBacking(*ctx, gpa + off));
    }
  }
  return gpa;
}

Status Hypervisor::VmcallReleaseGpaRange(Vcpu& vcpu, int guest, uint64_t gpa, uint64_t bytes) {
  vcpu.ChargeVmcall();
  dispatch_.Acquire(vcpu.clock(), CostCategory::kVmExit, 400);

  bytes = AlignUp(bytes, options_.chunk_size);
  GuestContext* ctx;
  {
    std::lock_guard<SpinLock> guard(guests_lock_);
    AQUILA_CHECK(guest >= 0 && guest < static_cast<int>(guests_.size()));
    ctx = guests_[guest].get();
  }
  std::lock_guard<SpinLock> guard(ctx->lock);
  auto it = ctx->grants.find(gpa);
  if (it == ctx->grants.end() || it->second.bytes != bytes) {
    return Status::InvalidArgument("release does not match a grant");
  }
  // Return every backed chunk in the range to the host pool.
  for (uint64_t off = 0; off < bytes; off += options_.chunk_size) {
    uint64_t hpa;
    if (ctx->ept.Translate(gpa + off, &hpa)) {
      Status status = ctx->ept.Unmap(gpa + off, options_.chunk_size);
      if (!status.ok()) {
        return status;
      }
      FreeHostChunk(AlignDown(hpa, options_.chunk_size));
      ctx->backed_bytes -= options_.chunk_size;
    }
  }
  ctx->grants.erase(it);
  ctx->granted_bytes -= bytes;
  return Status::Ok();
}

void Hypervisor::VmcallForwardSyscall(Vcpu& vcpu, uint64_t host_cycles) {
  vcpu.ChargeVmcall();
  dispatch_.Acquire(vcpu.clock(), CostCategory::kSyscall, host_cycles);
}

Status Hypervisor::HandleEptFault(Vcpu& vcpu, int guest, uint64_t gpa) {
  vcpu.ChargeEptFault();
  dispatch_.Acquire(vcpu.clock(), CostCategory::kVmExit, 300);

  GuestContext* ctx;
  {
    std::lock_guard<SpinLock> guard(guests_lock_);
    AQUILA_CHECK(guest >= 0 && guest < static_cast<int>(guests_.size()));
    ctx = guests_[guest].get();
  }
  std::lock_guard<SpinLock> guard(ctx->lock);
  // Validate the access against the grants (the "check the normal page
  // table" step of Dune's EPT fault handling, §3.5).
  auto it = ctx->grants.upper_bound(gpa);
  if (it == ctx->grants.begin()) {
    return Status::InvalidArgument("EPT fault outside granted ranges");
  }
  --it;
  const Grant& grant = it->second;
  if (gpa < grant.gpa || gpa >= grant.gpa + grant.bytes) {
    return Status::InvalidArgument("EPT fault outside granted ranges");
  }
  uint64_t chunk = AlignDown(gpa, options_.chunk_size);
  uint64_t hpa;
  if (ctx->ept.Translate(chunk, &hpa)) {
    return Status::Ok();  // another vCPU already installed it
  }
  return InstallBacking(*ctx, chunk);
}

uint8_t* Hypervisor::ResolveGpa(Vcpu& vcpu, int guest, uint64_t gpa) {
  GuestContext* ctx;
  {
    std::lock_guard<SpinLock> guard(guests_lock_);
    AQUILA_CHECK(guest >= 0 && guest < static_cast<int>(guests_.size()));
    ctx = guests_[guest].get();
  }
  uint64_t hpa;
  if (!ctx->ept.Translate(gpa, &hpa)) {
    Status status = HandleEptFault(vcpu, guest, gpa);
    AQUILA_CHECK(status.ok());
    AQUILA_CHECK(ctx->ept.Translate(gpa, &hpa));
  }
  return HostPtr(hpa);
}

uint64_t Hypervisor::granted_bytes(int guest) const {
  auto* self = const_cast<Hypervisor*>(this);
  std::lock_guard<SpinLock> guard(self->guests_lock_);
  AQUILA_CHECK(guest >= 0 && guest < static_cast<int>(self->guests_.size()));
  GuestContext* ctx = self->guests_[guest].get();
  std::lock_guard<SpinLock> ctx_guard(ctx->lock);
  return ctx->granted_bytes;
}

uint64_t Hypervisor::backed_bytes(int guest) const {
  auto* self = const_cast<Hypervisor*>(this);
  std::lock_guard<SpinLock> guard(self->guests_lock_);
  AQUILA_CHECK(guest >= 0 && guest < static_cast<int>(self->guests_.size()));
  GuestContext* ctx = self->guests_[guest].get();
  std::lock_guard<SpinLock> ctx_guard(ctx->lock);
  return ctx->backed_bytes;
}

}  // namespace aquila
