#include "parallel/donation.h"

#include <thread>

#include "obs/metrics.h"

namespace mpsm {

DonationPool::DonationPool(uint32_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries),
      entries_(new Entry[max_entries == 0 ? 1 : max_entries]) {}

DonationPool::~DonationPool() = default;

uint64_t DonationPool::RegisterSession() {
  std::lock_guard<std::mutex> lock(mu_);
  ++sessions_registered_;
  return next_session_++;
}

DonationPool::Ticket DonationPool::Publish(
    uint64_t session, TaskScheduler* scheduler,
    const std::function<void(WorkerContext&, const Morsel&)>* body,
    const numa::Topology* topology, uint32_t team_size) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < max_entries_; ++i) {
    Entry& entry = entries_[i];
    if (entry.open.load(std::memory_order_relaxed) ||
        entry.in_flight.load(std::memory_order_relaxed) != 0 ||
        entry.scheduler != nullptr) {
      continue;
    }
    entry.session = session;
    entry.scheduler = scheduler;
    entry.body = body;
    entry.topology = topology;
    entry.team_size = team_size;
    // Worker 0 of the owner team publishes from inside its query, so
    // its current sink IS the owner query's trace.
    entry.trace = obs::CurrentTraceSink();
    const uint64_t generation = next_generation_++;
    entry.generation.store(generation, std::memory_order_relaxed);
    // The release makes scheduler/body visible to guests that observe
    // open == true.
    entry.open.store(true, std::memory_order_release);
    ++phases_published_;
    return Ticket{static_cast<int>(i), generation};
  }
  return Ticket{};  // pool full: phase simply runs undonated
}

void DonationPool::Close(Ticket ticket) {
  if (ticket.slot < 0 ||
      static_cast<uint32_t>(ticket.slot) >= max_entries_) {
    return;
  }
  Entry& entry = entries_[ticket.slot];
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry.generation.load(std::memory_order_relaxed) !=
        ticket.generation) {
      return;  // already closed and re-published by someone else
    }
    entry.open.store(false, std::memory_order_seq_cst);
  }
  // Wait until no guest is mid-morsel: the acquire pairs with the
  // guest's release decrement, so every donated morsel's products are
  // visible to the host team when Close returns. The store of open and
  // this load, like a guest's increment and re-check, are seq_cst: a
  // guest that increments after this load saw 0 must see open false.
  while (entry.in_flight.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (entry.generation.load(std::memory_order_relaxed) == ticket.generation) {
    entry.scheduler = nullptr;
    entry.body = nullptr;
    entry.topology = nullptr;
    entry.trace = nullptr;
  }
}

bool DonationPool::TryHelp(uint64_t session, numa::NodeId guest_node,
                           uint32_t donor_lane) {
  for (uint32_t i = 0; i < max_entries_; ++i) {
    Entry& entry = entries_[i];
    if (!entry.open.load(std::memory_order_acquire)) continue;
    entry.in_flight.fetch_add(1, std::memory_order_seq_cst);
    // Re-check under the in-flight guard: Close observes either our
    // increment (and waits for us) or our bail-out below. Only a
    // publication seen open *here* has its fields — session included —
    // published to us (acquire pairs with Publish's release of open);
    // before the guard, Publish may be rewriting a recycled slot.
    if (!entry.open.load(std::memory_order_seq_cst) ||
        entry.session == session) {
      entry.in_flight.fetch_sub(1, std::memory_order_release);
      continue;
    }
    // Synthetic guest context: claims and bodies of guest-safe phases
    // use only node (queue choice / locality classification), stats
    // (counter sink) and team_size. worker_id == team_size is a
    // sentinel no guest-safe body may index with.
    WorkerStats scratch;
    WorkerContext guest;
    guest.worker_id = entry.team_size;
    guest.team_size = entry.team_size;
    guest.node = entry.topology == nullptr
                     ? 0
                     : guest_node % entry.topology->num_nodes();
    guest.stats = &scratch;
    guest.topology = entry.topology;
    const Morsel* morsel =
        entry.scheduler->Claim(guest, scratch.phase_counters[kPhaseJoin]);
    if (morsel == nullptr) {
      entry.in_flight.fetch_sub(1, std::memory_order_release);
      continue;
    }
    // The same work is attributed twice: a span in the *owner* query's
    // trace (the guest thread gets its own ring there, labeled
    // "guest") and a mirror span in the donor's own trace naming the
    // owner query it helped.
    obs::TraceSink* donor_sink = obs::CurrentTraceSink();
    if (entry.trace != nullptr) {
      entry.trace->LabelThread("guest", static_cast<uint32_t>(session));
    }
    const int64_t owner_start =
        entry.trace != nullptr ? entry.trace->NowNs() : 0;
    const int64_t donor_start =
        donor_sink != nullptr ? donor_sink->NowNs() : 0;
    const uint64_t owner_query =
        entry.trace != nullptr ? entry.trace->query_id() : 0;
    (*entry.body)(guest, *morsel);
    if (entry.trace != nullptr) {
      entry.trace->RecordSpan(obs::kCatDonation, "morsel.donated", owner_start,
                              entry.trace->NowNs() - owner_start, "donor_lane",
                              donor_lane, "donor_session", session);
    }
    if (donor_sink != nullptr) {
      donor_sink->RecordSpan(obs::kCatDonation, "donation.help", donor_start,
                             donor_sink->NowNs() - donor_start, "owner_query",
                             owner_query, "donor_lane", donor_lane);
    }
    static obs::Counter& donated_counter = obs::MetricsRegistry::Global().counter(
        "mpsm_service_donated_morsels_total",
        "Morsels executed by guest workers of other sessions");
    donated_counter.Add(1);
    morsels_donated_.fetch_add(1, std::memory_order_relaxed);
    entry.in_flight.fetch_sub(1, std::memory_order_release);
    return true;
  }
  return false;
}

DonationPool::Stats DonationPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.sessions_registered = sessions_registered_;
  stats.phases_published = phases_published_;
  stats.morsels_donated = morsels_donated_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mpsm
