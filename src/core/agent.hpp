#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/rf_localizer.hpp"
#include "est/estimator.hpp"
#include "mobility/odometry.hpp"
#include "multicast/odmrp.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/thread_pool.hpp"

namespace cocoa::core {

/// Whether a robot carries a localization device (laser ranger + SLAM).
enum class Role { Anchor, Blind };

/// Which estimator a blind robot runs — the three systems compared in §4,
/// plus the continuous-fusion EKF alternative from the related work (§5).
enum class LocalizationMode {
    OdometryOnly,  ///< §4.1: initial pose given, dead reckoning only
    RfOnly,        ///< §4.2: Bayesian RF fixes, held constant between windows
    Combined,      ///< §4.3: CoCoA — RF fixes + odometry in between
    Ekf,           ///< extension: EKF fusing odometry with each beacon range
};

/// How the team agrees on the Fig. 2 time-line.
enum class SyncMode {
    PerfectClock,  ///< idealized common clock (no sync traffic, no skew)
    Mrmm,          ///< coarse clocks + SYNC messages down the MRMM mesh (§2.3)
};

struct AgentConfig {
    Role role = Role::Blind;
    LocalizationMode mode = LocalizationMode::Combined;
    SyncMode sync = SyncMode::Mrmm;

    sim::Duration period = sim::Duration::seconds(100.0);  ///< T
    sim::Duration window = sim::Duration::seconds(3.0);    ///< t
    int beacons_per_window = 3;                            ///< k

    mobility::OdometryConfig odometry;
    /// The belief backend and its tuning (grid, RF technique, beacon filters,
    /// EKF-CL and LinCvx knobs; see est::Config). `estimation.backend` is the
    /// Combined-mode backend (docs/estimators.md); other modes pin their own
    /// — RfOnly/OdometryOnly the grid path, LocalizationMode::Ekf the legacy
    /// continuous EKF — and the agent derives hold_fixes/legacy_continuous
    /// from the mode.
    est::Config estimation;

    /// Sleep radios between windows (CoCoA coordination). When false the
    /// radio idles through the whole period — the Fig. 9(b) baseline.
    bool sleep_coordination = true;
    /// Robots wake this early before the nominal window start, absorbing
    /// clock skew.
    sim::Duration wake_guard = sim::Duration::seconds(1.0);
    /// Fixes are computed (and radios sleep) this long after the nominal
    /// window end, so straggler beacons still count.
    sim::Duration window_slack = sim::Duration::seconds(0.5);

    /// Per-period random-walk clock skew (Mrmm mode; zero for PerfectClock).
    double clock_skew_sigma_s = 0.1;
    /// Residual offset right after a SYNC re-alignment.
    double sync_residual_sigma_s = 0.02;
    /// Mesh settle delay between the sync robot's JOIN QUERY refresh and its
    /// SYNC data packet.
    sim::Duration sync_settle = sim::Duration::millis(150);

    /// Gaussian error of the anchor's own localization device (SLAM).
    double anchor_position_sigma_m = 0.25;
    std::size_t beacon_bytes = 24;
    std::size_t sync_bytes = 16;

    /// §6 future-work extension: blind robots that are confidently localized
    /// also transmit beacons (at their *estimated* position), reducing the
    /// number of anchors needed — at the risk of propagating bad positions.
    bool blind_beaconing = false;
    /// Confidence gate for blind beaconing: only beacon while the last fix's
    /// posterior RMS spread was at most this.
    double blind_beacon_max_spread_m = 8.0;

    /// Give the robot its true initial pose (the paper does this for the
    /// odometry-only experiment).
    bool initial_pose_known = false;
    /// Re-anchor the odometry heading at each RF fix (matches the paper's
    /// Glomosim odometry model, whose per-period error does not compound
    /// across fixes). Disable for the drifting-heading ablation.
    bool heading_correction_at_fix = true;

    /// When set, window-end Bayesian grid updates run as pool tasks instead
    /// of inline on the event thread: the window's beacons are snapshotted,
    /// the fix computes on a worker, and its side effects are folded in at
    /// the agent's next deterministic resolution point (tick, estimate or
    /// stats read — whichever the event time-line reaches first). During a
    /// beacon round every blind robot's grid update is in flight at once, so
    /// the per-round grid cost drops from sum-over-robots to roughly
    /// max-over-robots. Results are byte-identical to inline fixes at any
    /// pool size; see docs/performance.md. Ignored (fixes stay inline) while
    /// an event trace is recording, because deferral would reorder trace
    /// rows against other events at the same timestamp.
    sim::ThreadPool* fix_pool = nullptr;

    net::GroupId sync_group = 1;
    /// Sync-robot failover rank: -1 = not a candidate, 0 = primary (set via
    /// the constructor's is_sync_robot), k > 0 = k-th backup. A backup that
    /// hears no SYNC for (2k + 2) periods promotes itself to Sync robot —
    /// the staggering keeps two backups from promoting together. Addresses
    /// the single-point-of-failure in the paper's §2.3 design.
    int sync_rank = -1;
};

/// The per-robot CoCoA protocol agent (§2): executes the Fig. 2 time-line
/// (wake, beacon/receive, fix, sleep), maintains the position estimate, and
/// — on the sync robot — drives MRMM mesh refreshes and SYNC dissemination.
class CocoaAgent {
  public:
    struct Stats {
        std::uint64_t beacons_sent = 0;
        std::uint64_t blind_beacons_sent = 0;  ///< blind-beaconing extension
        std::uint64_t beacons_received = 0;
        std::uint64_t fixes = 0;
        std::uint64_t windows_without_fix = 0;
        std::uint64_t syncs_received = 0;
        std::uint64_t sync_takeovers = 0;  ///< failover promotions on this robot
    };

    /// `kernels` is the scenario's PDF table with its kernel bank; `mcast`
    /// may be null in PerfectClock mode; `is_sync_robot` selects the one
    /// robot that originates SYNC messages.
    CocoaAgent(net::Node& node, const AgentConfig& config,
               std::shared_ptr<const KernelBank> kernels,
               multicast::MulticastNode* mcast, bool is_sync_robot);

    CocoaAgent(const CocoaAgent&) = delete;
    CocoaAgent& operator=(const CocoaAgent&) = delete;

    /// Joins any in-flight pooled fix job: the worker writes into this
    /// object, so destruction must wait for it (the result is then folded in
    /// normally, keeping stats exact even at teardown).
    ~CocoaAgent();

    /// Schedules the agent's first period; call once before running.
    void start();

    /// Changes the beacon period T and transmit window t from the next
    /// period on. Meant for the Sync robot: the new values ride the next
    /// SYNC message and the whole team adopts them (§2.3's operator
    /// retuning). Throws std::invalid_argument unless 0 < window < period.
    void retune(sim::Duration period, sim::Duration window);

    /// Advances true mobility (and odometry) to the current simulation time.
    /// Called by the scenario's tick loop and internally before fixes.
    void tick();

    // --- fault-injection hooks (FaultInjector; no-ops otherwise) -----------

    /// Cold-restart after a crash-with-reboot fault: the robot forgets its
    /// pose estimate (odometry re-anchors at the area centre, the EKF opens
    /// wide, pending window beacons drop) and, under MRMM sync, restarts
    /// with a fresh clock error. The period schedule itself keeps running —
    /// the robot rejoins the time-line at its next window (or the next SYNC).
    /// The caller is responsible for powering the radio back on.
    void reboot();

    /// Adds `seconds` to this robot's clock error (coordination drift fault).
    void inject_clock_offset(double seconds) { clock_offset_s_ += seconds; }
    /// Current clock error vs true time, in seconds (tests/metrics).
    double clock_offset_seconds() const { return clock_offset_s_; }

    /// Scales the odometry noise sigmas (sensor-degradation fault);
    /// 1.0 restores nominal noise bit-exactly.
    void degrade_odometry(double scale) { odometry_.set_noise_scale(scale); }

    Role role() const { return config_.role; }
    net::NodeId id() const { return node_.id(); }
    net::Node& node() { return node_; }

    /// The robot's current position estimate under the configured mode.
    geom::Vec2 estimate() const;
    /// Ground-truth position (for metrics only).
    geom::Vec2 true_position() const { return node_.mobility().position(); }
    /// Localization error: |estimate - truth|.
    double error() const { return geom::distance(estimate(), true_position()); }

    const Stats& stats() const {
        resolve_pending();
        return stats_;
    }
    const RfLocalizer::Stats& localizer_stats() const {
        resolve_pending();
        return estimator_->localizer_stats();
    }
    bool ever_fixed() const {
        resolve_pending();
        return estimator_->ever_fixed();
    }
    /// The belief backend (tests/benches peek at backend-specific state).
    const est::Estimator& estimator() const {
        resolve_pending();
        return *estimator_;
    }
    bool is_sync_robot() const { return is_sync_robot_; }
    sim::Duration period() const { return config_.period; }
    sim::Duration window() const { return config_.window; }

    /// Checkpoint: serializes the agent's protocol and belief state (clock,
    /// period phase, window beacons, odometry, estimator backend, stats). A
    /// pooled fix in flight is folded in first — observably invisible, since
    /// the straight run folds it at its next resolution point anyway.
    void save_state(sim::ckpt::Writer& w) const;
    void load_state(sim::ckpt::Reader& r);
    /// Rebuilds the in-kernel callback for one of this agent's tagged events
    /// (kAgentWake / kAgentSyncSettle / kAgentBeacon / kAgentWindowEnd).
    sim::InplaceCallback rebuild_event(const sim::EventTag& tag);

  private:
    void schedule_period(std::uint32_t seq);
    void on_wake(std::uint32_t seq);
    void send_sync(std::uint32_t seq);
    void on_window_end(std::uint32_t seq);
    void send_beacon(std::uint32_t seq, int index);
    void on_beacon(const net::Packet& packet, const net::RxInfo& info);
    void on_mcast_deliver(const net::Packet& inner);
    sim::Duration clock_offset() const { return sim::Duration::seconds(clock_offset_s_); }

    /// Folds a pooled fix job's outcome into the agent (blocking on the
    /// worker if it has not finished). Every externally observable read goes
    /// through a resolution point, so *when* the worker ran is invisible:
    /// the fold always happens at the same event-time-line position as the
    /// inline computation would have, making pooled runs byte-identical to
    /// `fix_pool == nullptr` runs. No-op when no job is outstanding.
    void resolve_pending_fix();
    /// Const-accessor shim: resolution mutates bookkeeping, never the
    /// logically observable state the caller asked about.
    void resolve_pending() const {
        if (fix_pending_) const_cast<CocoaAgent*>(this)->resolve_pending_fix();
    }
    void apply_fix_outcome(const std::optional<Fix>& fix, double heading);

    net::Node& node_;
    AgentConfig config_;
    multicast::MulticastNode* mcast_;
    bool is_sync_robot_;
    mobility::OdometryEstimator odometry_;
    /// Belief backend; constructed in the ctor (after validation), never
    /// null afterwards. Owns the grid localizer in the default backend.
    std::unique_ptr<est::Estimator> estimator_;
    geom::Vec2 last_odometry_position_;
    sim::TimePoint last_predict_time_;
    sim::RandomStream noise_rng_;

    std::vector<BeaconObservation> window_beacons_;

    // --- deferred pooled fix (config_.fix_pool; see resolve_pending_fix) ---
    bool fix_pending_ = false;        ///< event thread: job submitted, unfolded
    std::atomic<bool> pending_ready_{false};  ///< worker -> event thread handoff
    std::optional<Fix> pending_fix_;  ///< worker-written result slot
    double pending_heading_ = 0.0;    ///< re-anchor heading, captured at window end

    double clock_offset_s_ = 0.0;   ///< this robot's clock error vs true time
    /// Nominal (sync-robot clock) start of the period being scheduled;
    /// advanced by the current T at each window end, re-anchored by SYNCs.
    sim::TimePoint period_start_;
    sim::TimePoint last_sync_heard_;
    std::uint32_t sync_seq_ = 0;
    Stats stats_;
};

}  // namespace cocoa::core
