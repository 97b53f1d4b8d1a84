// An in-process stand-in for the sharoes_sspd lifecycle, shared by the
// transport-fault and crash-recovery suites. With a wal_dir it mirrors
// `sharoes_sspd --wal DIR`: every mutating op is logged before its ack,
// and Start() recovers snapshot + log. Kill() syncs and compacts on the
// way down, like the real daemon handling SIGTERM. KillHard() drops the
// daemon with no sync or compaction — recovery must come entirely from
// the log. Faithful to SIGKILL in-process because Wal::Append issues a
// direct ::write per record (no user-space buffering), and the page
// cache survives a real SIGKILL just as our file bytes survive the
// object teardown. Without a wal_dir the store lives in memory and every
// Start() begins empty.
//
// Thread-safe: tests restart it from controller threads mid-workload.

#ifndef SHAROES_TESTS_TESTING_RESTARTABLE_H_
#define SHAROES_TESTS_TESTING_RESTARTABLE_H_

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "ssp/fault_injection.h"
#include "ssp/object_store.h"
#include "ssp/tcp_service.h"
#include "ssp/wal.h"

namespace sharoes::testing {

class RestartableDaemon {
 public:
  struct Options {
    std::string wal_dir;  // Write-ahead-log mode.
    ssp::WalOptions wal;
    /// Cluster-mode delete semantics: deletes leave versioned
    /// tombstones (`sharoes_sspd --cluster`). Re-applied on every
    /// (re)start, before WAL replay, exactly as the daemon does.
    bool tombstones = false;
  };

  explicit RestartableDaemon(Options opts) : opts_(std::move(opts)) {}
  ~RestartableDaemon() { Kill(); }

  void set_injector(ssp::FaultInjector* injector) { injector_ = injector; }

  /// Arm shard ownership (ssp/placement.h): every (re)started server
  /// refuses ops the ring does not place on `node_id` with kWrongShard,
  /// like a real `sharoes_sspd --cluster F --node-id N`. Survives
  /// Restart()/RestartHard() — StartLocked re-creates the SspServer, so
  /// the ring is re-applied there, same as the fault injector.
  void set_placement(const ssp::PlacementRing* ring, uint32_t node_id) {
    std::lock_guard<std::mutex> lock(mu_);
    placement_ = ring;
    placement_node_ = node_id;
    if (server_ != nullptr) server_->set_placement(ring, node_id);
  }

  void Start() {
    std::lock_guard<std::mutex> lock(mu_);
    StartLocked();
  }

  /// Graceful shutdown (SIGTERM): sync + compact in WAL mode.
  void Kill() {
    std::lock_guard<std::mutex> lock(mu_);
    KillLocked(/*graceful=*/true);
  }

  /// SIGKILL: no sync, no compaction. In WAL mode the log is the only
  /// thing the next Start() has.
  void KillHard() {
    std::lock_guard<std::mutex> lock(mu_);
    KillLocked(/*graceful=*/false);
  }

  void Restart() {
    std::lock_guard<std::mutex> lock(mu_);
    KillLocked(/*graceful=*/true);
    StartLocked();
  }

  void RestartHard() {
    std::lock_guard<std::mutex> lock(mu_);
    KillLocked(/*graceful=*/false);
    StartLocked();
  }

  uint16_t port() {
    std::lock_guard<std::mutex> lock(mu_);
    return port_;
  }

  bool running() {
    std::lock_guard<std::mutex> lock(mu_);
    return daemon_ != nullptr;
  }

  /// The live server (null when down). Only touch between Kill/Start
  /// from the controlling thread — the store reference dies with it.
  ssp::SspServer* server() {
    std::lock_guard<std::mutex> lock(mu_);
    return server_.get();
  }

  /// The live WAL's last sequence number: every mutating sub-op the
  /// daemon logged, counted across restarts (0 without a WAL or while
  /// down).
  uint64_t wal_sequence() {
    std::lock_guard<std::mutex> lock(mu_);
    return wal_ != nullptr ? wal_->last_sequence() : 0;
  }

  /// What the most recent WAL-mode Start() recovered.
  ssp::WalRecoveryInfo last_recovery() {
    std::lock_guard<std::mutex> lock(mu_);
    return last_recovery_;
  }

 private:
  void StartLocked() {
    ASSERT_EQ(daemon_, nullptr);
    server_ = std::make_unique<ssp::SspServer>();
    // Tombstone mode must be armed before WAL replay so recovered
    // deletes re-create their tombstones instead of erasing.
    if (opts_.tombstones) server_->store().set_tombstones_enabled(true);
    if (!opts_.wal_dir.empty()) {
      auto wal = ssp::Wal::Open(opts_.wal_dir, opts_.wal, &server_->store());
      ASSERT_TRUE(wal.ok()) << "wal recovery: " << wal.status();
      wal_ = std::move(*wal);
      last_recovery_ = wal_->recovery();
      server_->set_wal(wal_.get());
    }
    if (injector_ != nullptr) server_->set_fault_injector(injector_);
    // Re-binding the just-released port can transiently fail; be patient.
    for (int attempt = 0; attempt < 50; ++attempt) {
      auto daemon = ssp::TcpSspDaemon::Start(server_.get(), port_);
      if (daemon.ok()) {
        daemon_ = std::move(*daemon);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_NE(daemon_, nullptr) << "could not rebind port " << port_;
    port_ = daemon_->port();
    if (placement_ != nullptr) server_->set_placement(placement_, placement_node_);
  }

  void KillLocked(bool graceful) {
    if (daemon_ == nullptr) return;
    daemon_->Shutdown();
    daemon_.reset();
    if (wal_ != nullptr) {
      if (graceful) {
        EXPECT_TRUE(wal_->Sync().ok());
        EXPECT_TRUE(wal_->Compact().ok());
      }
      server_->set_wal(nullptr);
      wal_.reset();
    }
    server_.reset();
  }

  Options opts_;
  std::mutex mu_;
  std::unique_ptr<ssp::SspServer> server_;
  std::unique_ptr<ssp::Wal> wal_;
  std::unique_ptr<ssp::TcpSspDaemon> daemon_;
  ssp::WalRecoveryInfo last_recovery_;
  uint16_t port_ = 0;  // 0 until the first Start picks an ephemeral port.
  ssp::FaultInjector* injector_ = nullptr;
  const ssp::PlacementRing* placement_ = nullptr;
  uint32_t placement_node_ = 0;
};

}  // namespace sharoes::testing

#endif  // SHAROES_TESTS_TESTING_RESTARTABLE_H_
