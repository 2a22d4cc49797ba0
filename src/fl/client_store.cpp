#include "fl/client_store.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <limits>
#include <sstream>

#include "ckpt/format.hpp"
#include "fl/client_state.hpp"
#include "fl/server.hpp"
#include "utils/bytes.hpp"
#include "utils/error.hpp"
#include "utils/logging.hpp"

namespace fca::fl {
namespace {

std::string page_error_message(int client_id, const std::string& path,
                               const std::string& why) {
  std::ostringstream os;
  os << "client " << client_id << " page " << path << " is unusable: " << why;
  return os.str();
}

}  // namespace

PageError::PageError(int client_id, std::string path, const std::string& why)
    : Error(page_error_message(client_id, path, why)),
      client_id_(client_id),
      path_(std::move(path)) {}

void ClientStore::Lease::release() {
  if (store_ != nullptr) {
    store_->release(id_);
    store_ = nullptr;
    client_ = nullptr;
  }
}

ClientStore::ClientStore(std::vector<ClientPtr> clients)
    : population_(static_cast<int>(clients.size())),
      resident_all_(std::move(clients)) {
  FCA_CHECK_MSG(population_ > 0, "client store needs at least one client");
  for (int k = 0; k < population_; ++k) {
    FCA_CHECK_MSG(resident_all_[static_cast<size_t>(k)] != nullptr,
                  "client " << k << " is null");
  }
  // No factory: nothing is re-derivable, so every client counts as dirty
  // and permanently resident.
  dirty_.assign(static_cast<size_t>(population_), 1);
  stats_.peak_resident = population_;
}

ClientStore::ClientStore(int population, ClientFactory factory,
                         std::vector<int64_t> train_sizes,
                         ClientStoreOptions options)
    : population_(population),
      factory_(std::move(factory)),
      train_sizes_(std::move(train_sizes)),
      options_(std::move(options)) {
  FCA_CHECK_MSG(population_ > 0, "client store needs at least one client");
  FCA_CHECK_MSG(factory_ != nullptr, "lazy client store needs a factory");
  FCA_CHECK_MSG(
      train_sizes_.size() == static_cast<size_t>(population_),
      "train_sizes has " << train_sizes_.size() << " entries for "
                         << population_ << " clients");
  FCA_CHECK_MSG(options_.max_resident >= 0,
                "max_resident must be >= 0, got " << options_.max_resident);
  if (paged()) {
    FCA_CHECK_MSG(options_.max_resident >= 2,
                  "max_resident " << options_.max_resident
                                  << " is too small: the store needs room "
                                     "for one pinned client plus the "
                                     "most-recently-touched one");
    FCA_CHECK_MSG(!options_.page_dir.empty(),
                  "paged client store needs a page directory");
    std::filesystem::create_directories(options_.page_dir);
  }
  dirty_.assign(static_cast<size_t>(population_), 0);
  page_valid_.assign(static_cast<size_t>(population_), 0);
  in_transit_.assign(static_cast<size_t>(population_), 0);
}

ClientStore::~ClientStore() {
  std::error_code ec;
  for (int k = 0; k < population_; ++k) {
    if (!page_valid_.empty() && page_valid_[static_cast<size_t>(k)] != 0) {
      std::filesystem::remove(page_path(k), ec);
    }
  }
}

void ClientStore::check_id(int k) const {
  FCA_CHECK_MSG(k >= 0 && k < population_,
                "client id " << k << " outside [0, " << population_ << ")");
}

int64_t ClientStore::train_size(int k) const {
  check_id(k);
  if (factory_ == nullptr) {
    return resident_all_[static_cast<size_t>(k)]->train_size();
  }
  return train_sizes_[static_cast<size_t>(k)];
}

void ClientStore::set_costs(std::vector<Cost> costs) {
  FCA_CHECK_MSG(costs.size() == static_cast<size_t>(population_),
                "costs has " << costs.size() << " entries for " << population_
                             << " clients");
  costs_ = std::move(costs);
}

std::vector<double> ClientStore::costs(const std::vector<int>& clients,
                                       double Cost::*which) const {
  std::vector<double> out;
  if (costs_.empty()) return out;
  out.reserve(clients.size());
  for (int k : clients) {
    check_id(k);
    out.push_back(costs_[static_cast<size_t>(k)].*which);
  }
  return out;
}

std::string ClientStore::page_path(int k) const {
  return (std::filesystem::path(options_.page_dir) /
          ("client_" + std::to_string(k) + ".fpage"))
      .string();
}

ClientStore::Lease ClientStore::lease(int k, bool mark_dirty) {
  check_id(k);
  if (factory_ == nullptr) {
    // Resident backing: permanently materialized, nothing to pin.
    return Lease(nullptr, k, resident_all_[static_cast<size_t>(k)].get());
  }
  std::unique_lock<std::mutex> lk(mu_);
  Client& c = acquire(k, mark_dirty, /*pin=*/true, lk);
  return Lease(this, k, &c);
}

Client& ClientStore::touch(int k, bool mark_dirty) {
  check_id(k);
  if (factory_ == nullptr) return *resident_all_[static_cast<size_t>(k)];
  std::unique_lock<std::mutex> lk(mu_);
  return acquire(k, mark_dirty, /*pin=*/false, lk);
}

void ClientStore::release(int k) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = entries_.find(k);
  FCA_DCHECK(it != entries_.end() && it->second.pins > 0);
  --it->second.pins;
}

void ClientStore::settle(int k, std::unique_lock<std::mutex>& lk) {
  settled_.wait(lk, [&] { return in_transit_[static_cast<size_t>(k)] == 0; });
}

void ClientStore::settle_all(std::unique_lock<std::mutex>& lk) {
  settled_.wait(lk, [&] { return transits_ == 0; });
}

void ClientStore::off_lock(int k, std::unique_lock<std::mutex>& lk,
                           const std::function<void()>& io) {
  in_transit_[static_cast<size_t>(k)] = 1;
  ++transits_;
  lk.unlock();
  std::exception_ptr failure;
  try {
    io();
  } catch (...) {
    failure = std::current_exception();
  }
  lk.lock();
  in_transit_[static_cast<size_t>(k)] = 0;
  --transits_;
  settled_.notify_all();
  if (failure) std::rethrow_exception(failure);
}

Client& ClientStore::acquire(int k, bool mark_dirty, bool pin,
                             std::unique_lock<std::mutex>& lk) {
  for (;;) {
    settle(k, lk);
    auto it = entries_.find(k);
    if (it != entries_.end()) {
      Entry& e = it->second;
      e.last_use = ++use_tick_;
      if (pin) ++e.pins;
      if (mark_dirty) {
        dirty_[static_cast<size_t>(k)] = 1;
        e.page_current = false;
      }
      mru_id_ = k;
      return *e.client;
    }
    make_room(lk);
    // make_room may have dropped the lock: another lane can have started
    // (or finished) materializing k meanwhile.
    if (in_transit_[static_cast<size_t>(k)] == 0 && entries_.count(k) == 0) {
      return materialize(k, mark_dirty, pin, lk);
    }
  }
}

Client& ClientStore::materialize(int k, bool mark_dirty, bool pin,
                                 std::unique_lock<std::mutex>& lk) {
  // The slot is taken before the lock drops, so the budget counts k from
  // here on. References into the map survive rehashing, and nobody erases
  // an entry in transit, so `e` stays valid across the unlocked build.
  Entry& e = entries_[k];
  e.pins = pin ? 1 : 0;
  stats_.peak_resident =
      std::max(stats_.peak_resident, static_cast<int>(entries_.size()));
  const bool from_page = page_valid_[static_cast<size_t>(k)] != 0;
  const bool bootstrap = !from_page && bootstrap_armed_;
  ClientPtr client;
  try {
    off_lock(k, lk, [&] {
      client = factory_(k);
      FCA_CHECK_MSG(client != nullptr,
                    "factory returned null for client " << k);
      if (from_page) {
        load_page(k, *client);
      } else if (bootstrap) {
        // Clean first materialization under lazy initialization: apply the
        // armed bootstrap so the client starts exactly where the eager init
        // sweep would have left it. The result is still re-derivable, so
        // the client stays clean. arm_bootstrap() waits for every transit,
        // so the payload cannot change underneath this read.
        bootstrap_strategy_->bootstrap_client(*bootstrap_run_, *client,
                                              bootstrap_payload_);
      }
    });
  } catch (...) {
    entries_.erase(k);
    throw;
  }
  ++stats_.materializations;
  if (from_page) ++stats_.page_loads;
  if (mark_dirty) dirty_[static_cast<size_t>(k)] = 1;
  e.client = std::move(client);
  e.page_current = from_page && !mark_dirty;
  e.last_use = ++use_tick_;
  mru_id_ = k;
  return *e.client;
}

void ClientStore::make_room(std::unique_lock<std::mutex>& lk) {
  while (paged() &&
         static_cast<int>(entries_.size()) >= options_.max_resident) {
    int victim = -1;
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    for (const auto& [id, e] : entries_) {
      if (e.pins > 0 || id == mru_id_ ||
          in_transit_[static_cast<size_t>(id)] != 0) {
        continue;
      }
      if (e.last_use < oldest) {
        oldest = e.last_use;
        victim = id;
      }
    }
    if (victim >= 0) {
      evict(victim, lk);
      continue;
    }
    if (transits_ > 0) {
      // A load or page-out in flight will free a slot or pin one; look
      // again once it lands.
      settled_.wait(lk);
      continue;
    }
    FCA_CHECK_MSG(
        false,
        "client-store budget exhausted: all "
            << entries_.size() << " resident clients are pinned or "
            << "just-touched; raise --max-resident-clients (currently "
            << options_.max_resident
            << ") above client parallelism + 1");
  }
}

void ClientStore::evict(int k, std::unique_lock<std::mutex>& lk) {
  Entry& e = entries_.at(k);
  FCA_DCHECK(e.pins == 0 && in_transit_[static_cast<size_t>(k)] == 0);
  if (dirty_[static_cast<size_t>(k)] != 0 && !e.page_current) {
    // The victim keeps its slot until the page is on disk; if the write
    // fails it stays resident and leasable, and the PageError propagates.
    off_lock(k, lk, [&] { write_page(k, encode_client_state(*e.client)); });
    page_valid_[static_cast<size_t>(k)] = 1;
    ++stats_.page_writes;
  } else {
    // Clean clients are pure factory (+ bootstrap) output, and a page-current
    // one equals its page: drop without a write, re-derive or reload later.
    ++stats_.clean_drops;
  }
  entries_.erase(k);
}

void ClientStore::load_page(int k, Client& client) const {
  const std::string path = page_path(k);
  try {
    ckpt::SectionReader reader(path);
    utils::ByteReader meta(reader.section("meta"));
    const uint32_t id = meta.u32();
    meta.expect_done();
    FCA_CHECK_MSG(static_cast<int>(id) == k,
                  "page records client " << id << ", expected " << k);
    decode_client_state(reader.section("state"), client);
  } catch (const std::exception& e) {
    throw PageError(k, path, e.what());
  }
}

void ClientStore::write_page(int k, std::vector<std::byte> state) const {
  ckpt::SectionWriter w;
  utils::ByteWriter meta;
  meta.u32(static_cast<uint32_t>(k));
  w.add("meta", meta.take());
  w.add("state", std::move(state));
  const std::string path = page_path(k);
  try {
    w.write(path);
  } catch (const std::exception& e) {
    throw PageError(k, path, e.what());
  }
}

void ClientStore::arm_bootstrap(FederatedRun* run, RoundStrategy* strategy,
                                comm::Bytes payload) {
  FCA_CHECK_MSG(factory_ != nullptr,
                "bootstrap only applies to a lazily-backed client store");
  std::unique_lock<std::mutex> lk(mu_);
  settle_all(lk);
  // Clients materialized before arming (initialize_lazy's read-only
  // sweeps) never saw the bootstrap: drop every clean resident entry so its
  // next access re-derives through factory + bootstrap. Dirty entries (a
  // checkpoint restore that re-arms) keep their state — their bootstrap
  // already happened in the run being resumed.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (dirty_[static_cast<size_t>(it->first)] == 0) {
      FCA_CHECK_MSG(it->second.pins == 0,
                    "cannot arm bootstrap while clean client " << it->first
                        << " is leased");
      if (mru_id_ == it->first) mru_id_ = -1;
      ++stats_.clean_drops;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  bootstrap_run_ = run;
  bootstrap_strategy_ = strategy;
  bootstrap_payload_ = std::move(payload);
  bootstrap_armed_ = true;
}

bool ClientStore::bootstrap_armed() const {
  std::unique_lock<std::mutex> lk(mu_);
  return bootstrap_armed_;
}

std::vector<int> ClientStore::checkpoint_clients() const {
  std::vector<int> ids;
  if (factory_ == nullptr) {
    ids.resize(static_cast<size_t>(population_));
    for (int k = 0; k < population_; ++k) ids[static_cast<size_t>(k)] = k;
    return ids;
  }
  std::unique_lock<std::mutex> lk(mu_);
  for (int k = 0; k < population_; ++k) {
    if (dirty_[static_cast<size_t>(k)] != 0) ids.push_back(k);
  }
  return ids;
}

std::vector<std::byte> ClientStore::serialized_state(int k) {
  check_id(k);
  if (factory_ == nullptr) {
    return encode_client_state(*resident_all_[static_cast<size_t>(k)]);
  }
  std::unique_lock<std::mutex> lk(mu_);
  settle(k, lk);
  auto it = entries_.find(k);
  if (it != entries_.end()) {
    ++it->second.pins;
    const Lease pin(this, k, it->second.client.get());
    lk.unlock();
    return encode_client_state(*pin);
  }
  if (page_valid_[static_cast<size_t>(k)] != 0) {
    const std::string path = page_path(k);
    std::vector<std::byte> state;
    off_lock(k, lk, [&] {
      try {
        ckpt::SectionReader reader(path);
        const std::span<const std::byte> s = reader.section("state");
        state.assign(s.begin(), s.end());
      } catch (const std::exception& e) {
        throw PageError(k, path, e.what());
      }
    });
    return state;
  }
  FCA_CHECK_MSG(dirty_[static_cast<size_t>(k)] == 0,
                "dirty client " << k << " has neither memory nor page state");
  throw Error("client " + std::to_string(k) +
              " is clean: its state is the factory output and is not "
              "recorded separately");
}

void ClientStore::restore_serialized_state(int k,
                                           std::span<const std::byte> bytes) {
  check_id(k);
  if (factory_ == nullptr) {
    decode_client_state(bytes, *resident_all_[static_cast<size_t>(k)]);
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  settle(k, lk);
  auto it = entries_.find(k);
  if (it != entries_.end()) {
    FCA_CHECK_MSG(it->second.pins == 0,
                  "cannot restore client " << k << " while it is leased");
    entries_.erase(it);
  }
  dirty_[static_cast<size_t>(k)] = 1;
  if (paged()) {
    // Write the checkpoint bytes straight through as k's page; the client
    // materializes from it on next touch. Keeps restores O(dirty bytes)
    // instead of O(population) materializations.
    off_lock(k, lk, [&] {
      write_page(k, std::vector<std::byte>(bytes.begin(), bytes.end()));
    });
    page_valid_[static_cast<size_t>(k)] = 1;
    ++stats_.page_writes;
    return;
  }
  Client& c = materialize(k, /*mark_dirty=*/true, /*pin=*/true, lk);
  const Lease pin(this, k, &c);
  lk.unlock();
  decode_client_state(bytes, c);
}

void ClientStore::reset() {
  if (factory_ == nullptr) return;
  std::unique_lock<std::mutex> lk(mu_);
  settle_all(lk);
  for (const auto& [id, e] : entries_) {
    FCA_CHECK_MSG(e.pins == 0, "cannot reset the client store while client "
                                   << id << " is leased");
  }
  entries_.clear();
  mru_id_ = -1;
  std::error_code ec;
  for (int k = 0; k < population_; ++k) {
    if (page_valid_[static_cast<size_t>(k)] != 0) {
      std::filesystem::remove(page_path(k), ec);
    }
  }
  std::fill(dirty_.begin(), dirty_.end(), 0);
  std::fill(page_valid_.begin(), page_valid_.end(), 0);
}

void ClientStore::invalidate(int k) {
  check_id(k);
  FCA_CHECK_MSG(factory_ != nullptr,
                "cannot invalidate client " << k
                    << " of a resident store: nothing can re-derive it");
  std::unique_lock<std::mutex> lk(mu_);
  settle(k, lk);
  auto it = entries_.find(k);
  if (it != entries_.end()) {
    FCA_CHECK_MSG(it->second.pins == 0,
                  "cannot invalidate client " << k << " while it is leased");
    entries_.erase(it);
    if (mru_id_ == k) mru_id_ = -1;
  }
  if (page_valid_[static_cast<size_t>(k)] != 0) {
    std::error_code ec;
    std::filesystem::remove(page_path(k), ec);
    page_valid_[static_cast<size_t>(k)] = 0;
  }
  dirty_[static_cast<size_t>(k)] = 0;
}

int ClientStore::resident_count() const {
  if (factory_ == nullptr) return population_;
  std::unique_lock<std::mutex> lk(mu_);
  return static_cast<int>(entries_.size());
}

bool ClientStore::resident(int k) const {
  check_id(k);
  if (factory_ == nullptr) return true;
  std::unique_lock<std::mutex> lk(mu_);
  return entries_.count(k) != 0;
}

bool ClientStore::dirty(int k) const {
  check_id(k);
  if (factory_ == nullptr) return true;
  std::unique_lock<std::mutex> lk(mu_);
  return dirty_[static_cast<size_t>(k)] != 0;
}

ClientStoreStats ClientStore::stats() const {
  std::unique_lock<std::mutex> lk(mu_);
  return stats_;
}

void ClientStore::evict_idle() {
  if (!paged()) return;
  std::unique_lock<std::mutex> lk(mu_);
  mru_id_ = -1;
  for (;;) {
    int idle = -1;
    for (const auto& [id, e] : entries_) {
      if (e.pins == 0 && in_transit_[static_cast<size_t>(id)] == 0) {
        idle = id;
        break;
      }
    }
    if (idle < 0) return;
    evict(idle, lk);
  }
}

}  // namespace fca::fl
