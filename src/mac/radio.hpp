#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "energy/energy.hpp"
#include "mac/airframe.hpp"
#include "mac/medium.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace cocoa::mac {

/// 802.11b DCF timing for broadcast frames at 2 Mbps (the paper's setup).
struct MacConfig {
    sim::Duration slot = sim::Duration::micros(20);
    sim::Duration difs = sim::Duration::micros(50);
    sim::Duration plcp_preamble = sim::Duration::micros(192);
    int cw_min = 31;               ///< backoff drawn uniformly from [0, cw_min]
    double bitrate_bps = 2e6;
};

/// A node's 802.11 radio: CSMA/CA broadcast transmitter, receiver with
/// collision/capture handling, and power-state machine wired to an
/// EnergyMeter. Broadcast frames are fire-and-forget (no RTS/CTS, no ACK),
/// exactly like 802.11 broadcast.
class Radio {
  public:
    using PositionProvider = std::function<geom::Vec2()>;
    using ReceiveHandler = std::function<void(const net::Packet&, const net::RxInfo&)>;

    struct Stats {
        std::uint64_t tx_frames = 0;
        std::uint64_t rx_delivered = 0;
        std::uint64_t rx_corrupted = 0;   ///< lost to collisions
        std::uint64_t rx_captured = 0;    ///< re-locks onto a stronger overlap
        std::uint64_t rx_aborted = 0;     ///< reception cut short by sleep()
    };

    /// Creates and attaches the radio to `medium`. `position` supplies the
    /// node's (true) position for propagation.
    Radio(sim::Simulator& sim, Medium& medium, net::NodeId id, PositionProvider position,
          const energy::PowerProfile& profile, sim::RandomStream backoff_rng,
          MacConfig config = {});

    Radio(const Radio&) = delete;
    Radio& operator=(const Radio&) = delete;

    net::NodeId id() const { return id_; }
    /// Dense index assigned by Medium::attach — the radio's identity in the
    /// spatial index, availability table and AirFrame sensed sets.
    std::size_t attach_index() const { return attach_index_; }
    geom::Vec2 position() const { return position_(); }
    Medium& medium() { return medium_; }
    const Medium& medium() const { return medium_; }
    energy::RadioState state() const { return state_; }
    bool awake() const { return energy::is_awake(state_); }

    void set_receive_handler(ReceiveHandler handler) { handler_ = std::move(handler); }

    /// Queues a broadcast packet for CSMA transmission. Throws
    /// std::logic_error if the radio is asleep/off (callers coordinate sleep
    /// with traffic — that is CoCoA's whole point).
    void send(net::Packet packet);

    /// Time on air for a packet of this size (PLCP preamble + payload bits).
    sim::Duration airtime(const net::Packet& packet) const;

    /// Powers down to sleep. Pending CSMA attempts pause (resume on wake);
    /// an in-progress reception is aborted. Throws std::logic_error if
    /// called mid-transmission.
    void sleep();

    /// Powers back up to idle and rebuilds carrier-sense state. No-op when
    /// the radio is off.
    void wake();

    /// Permanently powers the radio off (robot failure / battery death):
    /// like sleep, but wake() no longer revives it. An in-flight frame is
    /// truncated on the medium (receivers abort decode). Used by
    /// failure-injection experiments.
    void power_off();
    bool is_off() const { return state_ == energy::RadioState::Off; }

    /// Revives a powered-off radio (crash-with-reboot fault): back to Idle
    /// with carrier-sense state rebuilt from the frames currently in flight.
    /// No-op unless the radio is off.
    void power_on();

    /// Begins a transient radio outage (hardware brown-out, antenna fault):
    /// like sleep — an in-flight transmission is truncated, a reception
    /// aborts, the queue drops — but wake() cannot revive it until
    /// end_outage(). No-op when the radio is off.
    void begin_outage();
    /// Ends the outage; the radio returns to Idle (unless it was off) and
    /// resumes CSMA. No-op when no outage is in progress.
    void end_outage();
    bool in_outage() const { return outage_; }
    /// Carrier-sense horizon: the channel reads busy until this time.
    sim::TimePoint sensed_until() const { return sensed_until_; }

    const energy::EnergyMeter& meter() const { return meter_; }
    /// Closes energy accounting through the current simulation time.
    void settle_energy() { meter_.settle(sim_.now()); }

    const Stats& stats() const { return stats_; }
    std::size_t tx_queue_depth() const { return queue_.size(); }

    // --- called by Medium ---------------------------------------------------

    /// A frame whose (sampled) power reaches the carrier-sense threshold has
    /// started; `decodable` means it also reaches the receive sensitivity.
    void on_frame_start(const std::shared_ptr<const AirFrame>& frame, double rssi_dbm,
                        bool decodable);

    /// `frame`'s transmitter died mid-frame: carrier sense is rebuilt, and a
    /// reception locked on the frame aborts (counted as rx_aborted).
    void on_frame_truncated(const std::shared_ptr<const AirFrame>& frame);

    // --- checkpoint ---------------------------------------------------------

    /// Serializes power state, CSMA progress, the receive lock (by frame
    /// seq), the tx queue, stats, the backoff stream and the energy books.
    /// The pending attempt / end-tx / frame-end events themselves live in the
    /// kernel section; the attempt EventId is re-learned through the placed
    /// hook Medium::register_rebuilders installs.
    void save_state(sim::ckpt::Writer& w, net::PacketSaveCtx& pkts) const;
    /// Restores save_state. Must run after Medium::load_state (the lock
    /// re-links through Medium::restored_frame) and must not schedule.
    void load_state(sim::ckpt::Reader& r, net::PacketLoadCtx& pkts);

  private:
    /// Rebuilders re-enter the private CSMA/receive machinery and re-learn
    /// attempt_event_ on behalf of each radio.
    friend class Medium;
    /// The one writer of state_ besides load_state: both keep the medium's
    /// awake mirror (Medium::set_radio_awake) current.
    void set_state(energy::RadioState next);
    bool channel_busy() const { return sim_.now() < sensed_until_; }
    void try_start_csma();
    void schedule_attempt();
    void attempt_tx();
    void begin_tx();
    void end_tx();
    void on_frame_end(const std::shared_ptr<const AirFrame>& frame);

    struct RxLock {
        std::shared_ptr<const AirFrame> frame;
        double rssi_dbm = 0.0;
        bool corrupted = false;
    };

    /// Tells the medium whether this radio can touch the air at all (not
    /// off, not in an outage); unavailable radios leave the spatial index.
    void publish_availability();

    sim::Simulator& sim_;
    Medium& medium_;
    std::size_t attach_index_ = 0;
    net::NodeId id_;
    PositionProvider position_;
    MacConfig config_;
    energy::RadioState state_ = energy::RadioState::Idle;
    energy::EnergyMeter meter_;
    sim::RandomStream backoff_rng_;
    ReceiveHandler handler_;

    std::deque<net::Packet> queue_;
    bool outage_ = false;  ///< transient fault: asleep and wake()-proof
    bool csma_pending_ = false;
    sim::EventId attempt_event_;
    sim::TimePoint sensed_until_;
    std::optional<RxLock> lock_;
    Stats stats_;
};

}  // namespace cocoa::mac
