#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

constexpr const char* kKindNames[] = {
    "host.step",           "host.end_of_day",    "servicer.service",
    "servicer.end_of_day", "lifetime.drive_day", "workload.gen",
    "ssd.service",         "ssd.end_of_day",     "host.make_device",
    "nand.pre_age",        "host.warm_fill",
};
static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) == kKinds);

/// Children kept per root in the Chrome trace, so one root with a huge
/// fan-out (warm_fill's servicer calls) cannot use up the span budget.
constexpr std::size_t kMaxChildrenKept = 256;

std::atomic<std::uint64_t> g_generation{0};

/// The calling thread's buffer in the tracer of generation `generation`.
struct LocalSlot {
  std::uint64_t generation = 0;
  void* buf = nullptr;
};
thread_local LocalSlot t_slot;

std::size_t index(Kind kind) { return static_cast<std::size_t>(kind); }

/// The module a span belongs to: its name up to the first '.'.
std::string category(Kind kind) {
  const std::string name = kKindNames[index(kind)];
  return name.substr(0, name.find('.'));
}

void add(KindTotals* t, std::int64_t duration_ns, std::int64_t self_ns,
         std::uint64_t work) {
  ++t->count;
  t->total_ns += duration_ns;
  t->self_ns += self_ns;
  t->work += work;
}

}  // namespace

const char* kind_name(Kind kind) { return kKindNames[index(kind)]; }

Tracer::Tracer(std::uint64_t sample_every, std::size_t max_kept)
    : sample_every_(std::max<std::uint64_t>(1, sample_every)),
      max_kept_(max_kept),
      epoch_ns_(now_ns()),
      generation_(g_generation.fetch_add(1) + 1) {
  loop_buf_ = &local();
}

Tracer::~Tracer() = default;

Tracer::ThreadBuf& Tracer::local() {
  if (t_slot.generation != generation_) {
    auto buf = std::make_unique<ThreadBuf>();
    std::lock_guard<std::mutex> lock(mu_);
    buf->tid = static_cast<std::uint32_t>(bufs_.size() + 1);
    t_slot.generation = generation_;
    t_slot.buf = buf.get();
    bufs_.push_back(std::move(buf));
  }
  return *static_cast<ThreadBuf*>(t_slot.buf);
}

void Tracer::child(Kind kind, std::int64_t start_ns, std::int64_t end_ns,
                   std::uint32_t shard, std::uint64_t work) {
  ThreadBuf& buf = local();
  Span span;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.work = work;
  span.tid = buf.tid;
  span.shard = shard;
  span.kind = kind;
  buf.pending.push_back(span);

  PhaseData& d = data(buf);
  add(&d.totals[index(kind)], end_ns - start_ns, end_ns - start_ns, work);
  if (kind == Kind::kServicerService) {
    if (d.shard_busy_ns.size() <= shard) d.shard_busy_ns.resize(shard + 1);
    d.shard_busy_ns[shard] += end_ns - start_ns;
  }
}

void Tracer::root(Kind kind, std::int64_t start_ns, std::int64_t end_ns,
                  std::uint64_t id, std::uint64_t work, bool all_threads) {
  ThreadBuf& own = local();
  std::vector<Span>& children = own.gathered;
  children.clear();
  if (all_threads) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buf : bufs_) {
      children.insert(children.end(), buf->pending.begin(),
                      buf->pending.end());
      buf->pending.clear();
    }
  } else {
    children.swap(own.pending);
  }

  // Self time: the root's interval minus the union of its children's
  // intervals (children on two threads may overlap each other).
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0;
  std::int64_t reach = start_ns;
  for (const Span& c : children) {
    const std::int64_t lo = std::max(c.start_ns, reach);
    const std::int64_t hi = std::min(c.end_ns, end_ns);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  PhaseData& d = data(own);
  add(&d.totals[index(kind)], end_ns - start_ns,
      (end_ns - start_ns) - covered, work);
  d.root_durations[index(kind)].push_back(end_ns - start_ns);
  d.root_ns += end_ns - start_ns;

  keep(kind, start_ns, end_ns, id, work, own.tid, &children);
  d.bookkeeping_ns += now_ns() - end_ns;
}

void Tracer::keep(Kind kind, std::int64_t start_ns, std::int64_t end_ns,
                  std::uint64_t id, std::uint64_t work, std::uint32_t tid,
                  std::vector<Span>* children) {
  // Every set-up root is kept; timed roots are sampled.
  if (phase_ == Phase::kTimed &&
      timed_roots_seen_.fetch_add(1, std::memory_order_relaxed) %
              sample_every_ !=
          0)
    return;
  std::lock_guard<std::mutex> lock(mu_);
  if (kept_.size() >= max_kept_) return;
  Span span;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = id;
  span.work = work;
  span.span_id = next_span_id_++;
  span.tid = tid;
  span.kind = kind;
  kept_.push_back(span);
  std::size_t kept_children = 0;
  for (Span& c : *children) {
    if (kept_.size() >= max_kept_ || kept_children++ == kMaxChildrenKept)
      break;
    c.id = id;
    c.span_id = next_span_id_++;
    c.parent = span.span_id;
    kept_.push_back(c);
  }
}

Totals Tracer::totals(Phase phase) const {
  Totals out{};
  const auto p = static_cast<std::size_t>(phase);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_)
    for (std::size_t k = 0; k < kKinds; ++k) {
      const KindTotals& t = buf->phases[p].totals[k];
      out[k].count += t.count;
      out[k].total_ns += t.total_ns;
      out[k].self_ns += t.self_ns;
      out[k].work += t.work;
    }
  return out;
}

std::vector<std::int64_t> Tracer::shard_busy_ns(Phase phase) const {
  std::vector<std::int64_t> out;
  const auto p = static_cast<std::size_t>(phase);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) {
    const auto& busy = buf->phases[p].shard_busy_ns;
    if (out.size() < busy.size()) out.resize(busy.size());
    for (std::size_t s = 0; s < busy.size(); ++s) out[s] += busy[s];
  }
  return out;
}

std::vector<std::int64_t> Tracer::root_durations_ns(Phase phase,
                                                    Kind kind) const {
  std::vector<std::int64_t> out;
  const auto p = static_cast<std::size_t>(phase);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) {
    const auto& d = buf->phases[p].root_durations[index(kind)];
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

std::int64_t Tracer::loop_covered_ns(Phase phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  const PhaseData& d = loop_buf_->phases[static_cast<std::size_t>(phase)];
  return d.root_ns + d.bookkeeping_ns;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\n",
               metadata.c_str());
  std::fprintf(f, "\"traceEvents\":[\n");
  // Thread names, so Perfetto labels the benchmark loop and pool workers.
  bool first = true;
  for (const auto& buf : bufs_) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s %u\"}}",
                 first ? "" : ",\n", buf->tid,
                 buf.get() == loop_buf_ ? "loop" : "worker", buf->tid);
    first = false;
  }
  for (const Span& s : kept_) {
    std::fprintf(
        f,
        "%s{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
        "\"parent\":%llu,\"id\":%llu,\"shard\":%u,\"work\":%llu}}",
        first ? "" : ",\n", kind_name(s.kind), category(s.kind).c_str(),
        s.tid, static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned long long>(s.span_id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.id), s.shard,
        static_cast<unsigned long long>(s.work));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
