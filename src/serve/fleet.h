// Fleet-scale serving: M concurrent streams over N virtual devices.
//
// StreamingService hardens one stream over one device; FleetScheduler is
// the next level up (DESIGN.md §12) — a deterministic discrete-event
// simulation in virtual time that multiplexes hundreds of streams across
// a device fleet with:
//
//   * admission control: per-tenant QoS classes (gold / silver /
//     best-effort) behind token buckets; a rejected frame terminates
//     immediately with FrameStatus::kAdmissionRejected and
//     ErrorClass::kRejected — typed, counted, never silently skipped;
//   * device fault domains: the serve/faults.h device vocabulary
//     (device-lost / device-hang / device-slow) with per-device 3-state
//     health (healthy -> lost -> probation, mirroring CircuitBreaker)
//     and stream failover — streams on a lost device migrate to healthy
//     devices, preserving per-stream frame order and detection
//     identity;
//   * fleet-wide load shedding composing with the per-stream
//     DegradationLadder: one shared overload signal (aggregate queue
//     depth + the SLO engine's deadline burn rate) walks whole QoS
//     classes down the ladder, best-effort first — gold sheds nothing
//     while lower classes still have capacity to give;
//   * cross-stream batching: same-ladder-level frames from different
//     streams fuse into one dispatch (the paper's concurrent-kernel
//     trick lifted from pyramid scales to streams), gated so a batch
//     never crosses a fault-domain boundary — a stream mid-failover is
//     served solo on its new device first.
//
// Everything is virtual-time and seeded: the chaos harness replays the
// same arrival pattern and device-loss schedule against a clean twin
// and asserts byte-identical detections after failover.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "detect/pipeline.h"
#include "ingest/frame_source.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "serve/faults.h"
#include "serve/policy.h"
#include "serve/service.h"

namespace fdet::serve {

enum class QosClass { kGold = 0, kSilver = 1, kBestEffort = 2 };
inline constexpr int kQosClassCount = 3;

/// Stable token: "gold" | "silver" | "best-effort".
const char* qos_class_name(QosClass cls);
/// Inverse of qos_class_name; throws core::CheckError on anything else.
QosClass parse_qos_class(const std::string& token);

/// Token-bucket admission configuration. Defaults admit everything.
struct AdmissionOptions {
  double rate_per_s = 1e18;  ///< sustained admitted frames per virtual second
  double burst = 1e18;       ///< bucket capacity (instantaneous headroom)
};

/// Deterministic token bucket clocked in virtual seconds.
class TokenBucket {
 public:
  TokenBucket() = default;
  explicit TokenBucket(AdmissionOptions options)
      : options_(options), tokens_(options.burst) {}

  /// Refills to `now_s` and takes one token if available.
  bool try_admit(double now_s);
  double tokens() const { return tokens_; }

 private:
  AdmissionOptions options_;
  double tokens_ = 1e18;
  double last_s_ = 0.0;
};

struct TenantSpec {
  std::string name;
  QosClass cls = QosClass::kBestEffort;
  AdmissionOptions admission;
};

/// One entry of a parsed tenant mix ("gold:2,best-effort:5").
struct TenantMixEntry {
  TenantSpec spec;
  int streams = 1;
};

/// Parses "class:count[,class:count...]" into tenant specs named after
/// their class. Throws core::CheckError on a malformed entry.
std::vector<TenantMixEntry> parse_tenant_mix(const std::string& text);

/// Per-device health, mirroring CircuitBreaker's three states at device
/// granularity: healthy serves; lost serves nothing (streams fail over);
/// a recovered device sits in probation until it completes one clean
/// frame (served solo — the batching boundary rule).
enum class DeviceState { kHealthy, kLost, kProbation };
const char* device_state_name(DeviceState state);

class DeviceHealth {
 public:
  DeviceState state() const { return state_; }
  int faults() const { return faults_; }
  void on_fault() {
    state_ = DeviceState::kLost;
    ++faults_;
  }
  void on_recovered() {
    if (state_ == DeviceState::kLost) {
      state_ = DeviceState::kProbation;
    }
  }
  void on_frame_ok() {
    if (state_ == DeviceState::kProbation) {
      state_ = DeviceState::kHealthy;
    }
  }

 private:
  DeviceState state_ = DeviceState::kHealthy;
  int faults_ = 0;
};

struct FleetOptions {
  int devices = 4;
  double deadline_ms = 100.0;  ///< per-frame budget, arrival to completion
  /// Admitted backlog per stream; arrivals beyond it are shed.
  int stream_queue_capacity = 4;
  /// Ready frames per device before class-aware shedding kicks in.
  int device_queue_capacity = 64;
  /// A silently hanging device is declared lost this long after the hang
  /// onset (nothing else can tell a hang from a long frame).
  double hang_watchdog_ms = 50.0;
  bool cross_stream_batching = true;
  int batch_max = 4;                ///< frames fused per dispatch
  double batch_overhead_ms = 0.5;   ///< launch overhead saved per extra frame
  /// Overload when total backlog exceeds this many frames per active
  /// stream (the queue-depth half of the shared shed signal).
  double overload_backlog_per_stream = 2.0;
  /// Minimum virtual seconds between fleet-wide shed steps, so one burst
  /// walks the ladder one rung at a time instead of slamming to the floor.
  double shed_cooldown_s = 0.25;
  DegradeOptions degrade;
  obs::SloOptions slo;  ///< deadline_ms is overridden from FleetOptions
  bool flight_recorder = true;
  std::size_t recorder_capacity = 16384;
  std::uint64_t seed = 0xf1ee7;
};

/// Outcome of one frame of one stream through the fleet.
struct FleetFrame {
  int stream = 0;
  int index = 0;
  int tenant = 0;
  int device = -1;  ///< device that completed (or last held) the frame
  FrameStatus status = FrameStatus::kOk;
  int degradation_level = 0;
  double arrival_s = 0.0;
  double completion_s = 0.0;
  double decode_ms = 0.0;
  double detect_ms = 0.0;
  double latency_ms = 0.0;
  int batch_size = 1;  ///< dispatch fan-in (1 = served solo)
  bool fault_injected = false;
  bool failed_over = false;  ///< re-dispatched after losing its device
  ingest::FrameArrival arrival = ingest::FrameArrival::kInOrder;
  bool missing = false;
  bool deadline_miss = false;
  /// Scheduler-internal: the frame has reached a terminal status. The
  /// chaos harness asserts this holds for every admitted frame.
  bool settled = false;
  std::string cause;
  std::vector<detect::Detection> detections;
  std::optional<FrameError> error;
};

struct TenantReport {
  std::string name;
  QosClass cls = QosClass::kBestEffort;
  int streams = 0;
  int frames = 0;
  int admitted = 0;
  int admission_rejected = 0;
  int ok = 0;
  int degraded = 0;
  int dropped = 0;
  int failed = 0;
  int deadline_misses = 0;
  int failovers = 0;
  int max_shed_level = 0;  ///< deepest ladder rung any stream reached
  double p50_ms = 0.0;     ///< served-frame latency percentiles
  double p99_ms = 0.0;
  double max_latency_ms = 0.0;
};

struct DeviceReport {
  int frames = 0;  ///< frames completed on this device
  int faults = 0;
  int failovers_out = 0;  ///< frames that migrated away mid-service
  double busy_ms = 0.0;
  DeviceState final_state = DeviceState::kHealthy;
};

struct FleetReport {
  /// Every frame of every stream, ordered by (stream, index).
  std::vector<FleetFrame> frames;
  std::vector<TenantReport> tenants;
  std::vector<DeviceReport> devices;
  int admitted = 0;
  int admission_rejected = 0;
  int served = 0;  ///< ok + degraded
  int dropped = 0;
  int failed = 0;
  int deadline_misses = 0;
  int failovers = 0;      ///< frame re-dispatches after device loss
  int device_faults = 0;  ///< lost/hang events (watchdog counts as hang's)
  int watchdog_fires = 0;
  int batches = 0;         ///< multi-frame dispatches
  int batched_frames = 0;  ///< frames inside those dispatches
  int missing_frames = 0;
  int out_of_order = 0;
  int duplicates = 0;
  int shed_steps = 0;     ///< fleet-wide class shed actions
  int recover_steps = 0;  ///< fleet-wide class recover actions
  /// Frames still unsettled when the event queue drained — always 0
  /// unless the scheduler itself is broken; the chaos harness gates on it.
  int stranded = 0;
  obs::SloSnapshot slo;

  const FleetFrame* frame(int stream, int index) const;
};

class FleetScheduler {
 public:
  /// `base` is the level-0 pipeline configuration; ladder rungs derive
  /// shed configurations from it exactly as StreamingService does.
  /// `registry` may be null (no metrics).
  FleetScheduler(const vgpu::DeviceSpec& spec, haar::Cascade cascade,
                 detect::PipelineOptions base, FleetOptions options,
                 obs::Registry* registry = nullptr);
  ~FleetScheduler();

  /// Registers a tenant; returns its id (index into the report).
  int add_tenant(TenantSpec spec);

  /// Registers a stream owned by `tenant`: frames [0, frames) of
  /// `source` arrive at `fps`, offset by `phase_s`. The source must
  /// outlive run(). Returns the stream id.
  int add_stream(int tenant, const ingest::FrameSource& source, double fps,
                 int frames, double phase_s = 0.0);

  /// Runs the whole fleet to completion under optional device-level and
  /// frame-level fault plans. Resets all per-run state (ladders, health,
  /// buckets, caches) so consecutive runs are independent and a faulted
  /// run can be compared against its clean twin. The frame plan may hold
  /// decode, corrupt and bitstream faults only; any other kind throws
  /// core::CheckError naming it.
  FleetReport run(const DeviceFaultPlan* device_plan = nullptr,
                  const FaultPlan* frame_plan = nullptr);

  const FleetOptions& options() const { return options_; }
  int tenant_count() const { return static_cast<int>(tenants_.size()); }
  int stream_count() const;  // fleet.cpp (StreamConfig is incomplete here)
  const obs::FlightRecorder* recorder() const { return recorder_.get(); }

 private:
  struct StreamConfig;
  struct Sim;  ///< whole per-run simulation state (fleet.cpp)

  const detect::Pipeline& pipeline_for_level(int level);
  void count(const char* name, const obs::Labels& labels = {},
             double delta = 1.0);
  void gauge(const char* name, double value, const obs::Labels& labels = {});
  void flight(obs::FlightEventKind kind, int stream, int frame, double ts_us,
              const char* name, const char* detail, double value = 0.0);

  vgpu::DeviceSpec spec_;
  haar::Cascade cascade_;
  detect::PipelineOptions base_;
  FleetOptions options_;
  obs::Registry* registry_;
  std::vector<TenantSpec> tenants_;
  std::vector<StreamConfig> streams_;
  std::map<int, std::unique_ptr<detect::Pipeline>> pipelines_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
};

}  // namespace fdet::serve
