#include "mac/radio.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "net/packet_io.hpp"
#include "sim/checkpoint.hpp"

namespace cocoa::mac {

namespace {
constexpr std::uint32_t kMarkRadio = 0x4f494452u;  // "RDIO"
}  // namespace

Radio::Radio(sim::Simulator& sim, Medium& medium, net::NodeId id, PositionProvider position,
             const energy::PowerProfile& profile, sim::RandomStream backoff_rng,
             MacConfig config)
    : sim_(sim),
      medium_(medium),
      id_(id),
      position_(std::move(position)),
      config_(config),
      meter_(profile, sim.now(), energy::RadioState::Idle),
      backoff_rng_(std::move(backoff_rng)) {
    if (!position_) {
        throw std::invalid_argument("Radio: position provider required");
    }
    if (config_.bitrate_bps <= 0.0 || config_.cw_min < 0) {
        throw std::invalid_argument("Radio: bad MAC configuration");
    }
    attach_index_ = medium_.attach(*this);

    // Swarm-scale scenarios disable the per-node registry names (a 100k-node
    // team would otherwise hold ~1M counter strings); aggregates and the
    // meters themselves are unaffected.
    if (medium_.config().register_node_counters) {
        const std::string prefix = "node." + std::to_string(id_) + ".";
        obs::CounterRegistry& reg = medium_.obs().counters;
        reg.add(prefix + "mac.tx_frames", &stats_.tx_frames);
        reg.add(prefix + "mac.rx_delivered", &stats_.rx_delivered);
        reg.add(prefix + "mac.rx_corrupted", &stats_.rx_corrupted);
        reg.add(prefix + "mac.rx_captured", &stats_.rx_captured);
        reg.add(prefix + "mac.rx_aborted", &stats_.rx_aborted);
        meter_.register_counters(reg, prefix + "energy.");
    }
}

void Radio::publish_availability() {
    medium_.set_radio_available(*this, !is_off() && !in_outage());
}

void Radio::set_state(energy::RadioState next) {
    meter_.change_state(sim_.now(), next);
    state_ = next;
    medium_.set_radio_awake(attach_index_, awake());
}

sim::Duration Radio::airtime(const net::Packet& packet) const {
    const double payload_s =
        static_cast<double>(packet.wire_bytes()) * 8.0 / config_.bitrate_bps;
    return config_.plcp_preamble + sim::Duration::seconds(payload_s);
}

void Radio::send(net::Packet packet) {
    if (!awake()) {
        throw std::logic_error("Radio::send while asleep (coordination bug)");
    }
    packet.src = id_;
    queue_.push_back(std::move(packet));
    try_start_csma();
}

void Radio::try_start_csma() {
    if (csma_pending_ || queue_.empty() || state_ == energy::RadioState::Tx || !awake()) {
        return;
    }
    csma_pending_ = true;
    schedule_attempt();
}

void Radio::schedule_attempt() {
    const sim::TimePoint idle_at = std::max(sim_.now(), sensed_until_);
    const sim::Duration backoff =
        config_.slot * backoff_rng_.uniform_int(0, config_.cw_min);
    attempt_event_ = sim_.schedule_at(
        idle_at + config_.difs + backoff, [this] { attempt_tx(); },
        sim::make_tag(sim::EventKind::kRadioAttempt,
                      static_cast<std::uint32_t>(attach_index_)));
}

void Radio::attempt_tx() {
    attempt_event_ = sim::EventId{};
    if (!awake()) {
        // Went to sleep while deferring; wake() restarts CSMA.
        csma_pending_ = false;
        return;
    }
    if (channel_busy() || lock_.has_value()) {
        schedule_attempt();
        return;
    }
    begin_tx();
}

void Radio::begin_tx() {
    net::Packet packet = std::move(queue_.front());
    queue_.pop_front();
    const sim::Duration on_air = airtime(packet);
    set_state(energy::RadioState::Tx);
    medium_.begin_transmission(*this, packet, on_air);
    sim_.schedule_in(on_air, [this] { end_tx(); },
                     sim::make_tag(sim::EventKind::kRadioEndTx,
                                   static_cast<std::uint32_t>(attach_index_)));
}

void Radio::end_tx() {
    // Only a transmission that actually completed counts: power_off and
    // begin_outage truncate the frame and leave the radio Off/Sleep.
    if (state_ != energy::RadioState::Tx) return;
    ++stats_.tx_frames;
    set_state(energy::RadioState::Idle);
    csma_pending_ = false;
    try_start_csma();
}

void Radio::on_frame_start(const std::shared_ptr<const AirFrame>& frame, double rssi_dbm,
                           bool decodable) {
    sensed_until_ = std::max(sensed_until_, frame->end);
    if (state_ == energy::RadioState::Tx) return;  // half duplex: deaf while sending

    if (lock_.has_value()) {
        // Overlap with the frame being received. A frame stronger than the
        // lock by the capture margin takes the receiver over (physical
        // capture works both ways); one inside the margin corrupts the lock;
        // anything weaker is captured over and ignored.
        if (decodable && rssi_dbm >= lock_->rssi_dbm + medium_.capture_margin_db()) {
            ++stats_.rx_corrupted;  // the abandoned frame is lost
            ++stats_.rx_captured;
            medium_.obs().trace.instant(sim_.now(), "mac", "rx_capture",
                                        static_cast<std::int64_t>(id_),
                                        {{"rssi_dbm", rssi_dbm},
                                         {"old_rssi_dbm", lock_->rssi_dbm}});
            lock_ = RxLock{frame, rssi_dbm, false};
            sim_.schedule_at(frame->end, [this, frame] { on_frame_end(frame); },
                             sim::make_tag(sim::EventKind::kRadioFrameEnd,
                                           static_cast<std::uint32_t>(attach_index_),
                                           0, 0, frame->seq));
            return;  // the old frame's on_frame_end no-ops (lock moved on)
        }
        if (rssi_dbm >= lock_->rssi_dbm - medium_.capture_margin_db()) {
            lock_->corrupted = true;
            medium_.obs().trace.instant(sim_.now(), "mac", "rx_corrupt",
                                        static_cast<std::int64_t>(id_),
                                        {{"rssi_dbm", rssi_dbm}});
        }
        return;
    }
    if (!decodable) return;

    lock_ = RxLock{frame, rssi_dbm, false};
    medium_.obs().trace.instant(sim_.now(), "mac", "rx_lock",
                                static_cast<std::int64_t>(id_),
                                {{"rssi_dbm", rssi_dbm}});
    set_state(energy::RadioState::Rx);
    sim_.schedule_at(frame->end, [this, frame] { on_frame_end(frame); },
                     sim::make_tag(sim::EventKind::kRadioFrameEnd,
                                   static_cast<std::uint32_t>(attach_index_), 0, 0,
                                   frame->seq));
}

void Radio::on_frame_end(const std::shared_ptr<const AirFrame>& frame) {
    if (!lock_.has_value() || lock_->frame != frame) return;  // aborted by sleep
    const RxLock lock = *std::exchange(lock_, std::nullopt);
    set_state(energy::RadioState::Idle);
    if (lock.corrupted) {
        ++stats_.rx_corrupted;
    } else {
        ++stats_.rx_delivered;
        medium_.obs().trace.instant(sim_.now(), "mac", "rx_deliver",
                                    static_cast<std::int64_t>(id_),
                                    {{"rssi_dbm", lock.rssi_dbm},
                                     {"from", static_cast<double>(frame->sender)}});
        if (handler_) {
            handler_(frame->packet, net::RxInfo{lock.rssi_dbm, sim_.now()});
        }
    }
    try_start_csma();
}

void Radio::save_state(sim::ckpt::Writer& w, net::PacketSaveCtx& pkts) const {
    w.mark(kMarkRadio);
    w.u8(static_cast<std::uint8_t>(state_));
    w.b(outage_);
    w.b(csma_pending_);
    w.time(sensed_until_);
    w.b(lock_.has_value());
    if (lock_.has_value()) {
        w.u64(lock_->frame->seq);
        w.f64(lock_->rssi_dbm);
        w.b(lock_->corrupted);
    }
    w.u64(queue_.size());
    for (const net::Packet& packet : queue_) net::save_packet(w, packet, pkts);
    w.u64(stats_.tx_frames);
    w.u64(stats_.rx_delivered);
    w.u64(stats_.rx_corrupted);
    w.u64(stats_.rx_captured);
    w.u64(stats_.rx_aborted);
    backoff_rng_.save(w);
    meter_.save(w);
}

void Radio::load_state(sim::ckpt::Reader& r, net::PacketLoadCtx& pkts) {
    r.expect(kMarkRadio);
    state_ = static_cast<energy::RadioState>(r.u8());
    outage_ = r.b();
    csma_pending_ = r.b();
    sensed_until_ = r.time();
    attempt_event_ = sim::EventId{};  // re-learned via the placed hook
    if (r.b()) {
        RxLock lock;
        lock.frame = medium_.restored_frame(r.u64());
        lock.rssi_dbm = r.f64();
        lock.corrupted = r.b();
        lock_ = std::move(lock);
    } else {
        lock_.reset();
    }
    queue_.clear();
    const std::uint64_t depth = r.u64();
    for (std::uint64_t i = 0; i < depth; ++i) {
        queue_.push_back(net::load_packet(r, pkts));
    }
    stats_.tx_frames = r.u64();
    stats_.rx_delivered = r.u64();
    stats_.rx_corrupted = r.u64();
    stats_.rx_captured = r.u64();
    stats_.rx_aborted = r.u64();
    backoff_rng_.load(r);
    meter_.load(r);
    // Sync the medium's availability table (and spatial-index membership)
    // and its awake bit with the restored power state — off / in-outage
    // radios leave the tree.
    publish_availability();
    medium_.set_radio_awake(attach_index_, awake());
}

void Radio::sleep() {
    if (state_ == energy::RadioState::Sleep || state_ == energy::RadioState::Off) {
        return;
    }
    if (state_ == energy::RadioState::Tx) {
        throw std::logic_error("Radio::sleep during transmission");
    }
    if (lock_.has_value()) {
        lock_.reset();
        ++stats_.rx_aborted;
        medium_.obs().trace.instant(sim_.now(), "mac", "rx_abort",
                                    static_cast<std::int64_t>(id_));
    }
    if (attempt_event_.valid()) {
        sim_.cancel(attempt_event_);
        attempt_event_ = sim::EventId{};
    }
    csma_pending_ = false;
    set_state(energy::RadioState::Sleep);
    medium_.obs().trace.instant(sim_.now(), "mac", "sleep",
                                static_cast<std::int64_t>(id_));
}

void Radio::on_frame_truncated(const std::shared_ptr<const AirFrame>& frame) {
    if (!awake()) return;  // asleep/off radios rebuild sense on wake anyway
    // The air went quiet early; re-derive carrier sense from what is still
    // in flight (the truncated frame no longer counts).
    sensed_until_ = std::max(sim_.now(), medium_.sensed_until_for(*this));
    if (lock_.has_value() && lock_->frame == frame) {
        lock_.reset();
        ++stats_.rx_aborted;
        medium_.obs().trace.instant(sim_.now(), "mac", "rx_abort",
                                    static_cast<std::int64_t>(id_));
        set_state(energy::RadioState::Idle);
        try_start_csma();
    }
}

void Radio::wake() {
    if (awake() || state_ == energy::RadioState::Off || outage_) return;
    set_state(energy::RadioState::Idle);
    sensed_until_ = medium_.sensed_until_for(*this);
    medium_.obs().trace.instant(sim_.now(), "mac", "wake",
                                static_cast<std::int64_t>(id_));
    try_start_csma();
}

void Radio::power_off() {
    if (state_ == energy::RadioState::Off) return;
    if (state_ == energy::RadioState::Tx) {
        // The frame dies with the radio: truncate it on the medium so
        // receivers stop decoding (and abort any lock) instead of receiving
        // from a corpse.
        medium_.truncate_transmission(*this);
    }
    if (lock_.has_value()) {
        lock_.reset();
        ++stats_.rx_aborted;
    }
    if (attempt_event_.valid()) {
        sim_.cancel(attempt_event_);
        attempt_event_ = sim::EventId{};
    }
    outage_ = false;
    csma_pending_ = false;
    queue_.clear();
    set_state(energy::RadioState::Off);
    publish_availability();
}

void Radio::power_on() {
    if (state_ != energy::RadioState::Off) return;
    outage_ = false;
    set_state(energy::RadioState::Idle);
    publish_availability();
    sensed_until_ = medium_.sensed_until_for(*this);
    medium_.obs().trace.instant(sim_.now(), "mac", "power_on",
                                static_cast<std::int64_t>(id_));
    try_start_csma();
}

void Radio::begin_outage() {
    if (outage_ || state_ == energy::RadioState::Off) return;
    outage_ = true;
    if (state_ == energy::RadioState::Tx) {
        medium_.truncate_transmission(*this);
    }
    if (lock_.has_value()) {
        lock_.reset();
        ++stats_.rx_aborted;
        medium_.obs().trace.instant(sim_.now(), "mac", "rx_abort",
                                    static_cast<std::int64_t>(id_));
    }
    if (attempt_event_.valid()) {
        sim_.cancel(attempt_event_);
        attempt_event_ = sim::EventId{};
    }
    csma_pending_ = false;
    queue_.clear();
    set_state(energy::RadioState::Sleep);
    publish_availability();
    medium_.obs().trace.instant(sim_.now(), "mac", "outage_begin",
                                static_cast<std::int64_t>(id_));
}

void Radio::end_outage() {
    if (!outage_) return;
    outage_ = false;
    if (state_ == energy::RadioState::Off) return;  // crashed during the outage
    set_state(energy::RadioState::Idle);
    publish_availability();
    sensed_until_ = medium_.sensed_until_for(*this);
    medium_.obs().trace.instant(sim_.now(), "mac", "outage_end",
                                static_cast<std::int64_t>(id_));
    try_start_csma();
}

}  // namespace cocoa::mac
