#include "serve/faults.h"

#include <algorithm>
#include <sstream>

#include "core/check.h"
#include "core/rng.h"
#include "vgpu/scheduler.h"

namespace fdet::serve {
namespace {

/// Distinguishes the per-kind hash streams of one plan seed.
std::uint64_t kind_salt(FaultKind kind) {
  return 0x9e37u + static_cast<std::uint64_t>(kind);
}

std::optional<FaultKind> kind_from_token(std::string_view token) {
  if (token == "decode") return FaultKind::kDecodeFail;
  if (token == "corrupt") return FaultKind::kCorruptLuma;
  if (token == "launch") return FaultKind::kLaunchTransient;
  if (token == "const") return FaultKind::kConstantOverflow;
  if (token == "shared") return FaultKind::kSharedOverflow;
  if (token == "bitstream") return FaultKind::kBitstream;
  return std::nullopt;
}

bool is_hard(FaultKind kind) {
  // Bitstream damage behaves like a hard fault: every decode attempt of
  // the frame sees the same malformed bytes, so it fires regardless of
  // the attempt counter (the service quarantines instead of retrying).
  return kind == FaultKind::kConstantOverflow ||
         kind == FaultKind::kSharedOverflow || kind == FaultKind::kBitstream;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDecodeFail: return "decode";
    case FaultKind::kCorruptLuma: return "corrupt";
    case FaultKind::kLaunchTransient: return "launch";
    case FaultKind::kConstantOverflow: return "const";
    case FaultKind::kSharedOverflow: return "shared";
    case FaultKind::kBitstream: return "bitstream";
  }
  return "?";
}

FaultPlan::FaultPlan(std::uint64_t seed, std::vector<FaultSpec> specs)
    : seed_(seed), specs_(std::move(specs)) {
  for (const FaultSpec& spec : specs_) {
    FDET_CHECK(spec.frame >= 0 || (spec.probability > 0.0 &&
                                   spec.probability <= 1.0))
        << "fault spec '" << fault_kind_name(spec.kind)
        << "' needs a frame index or a probability in (0, 1]";
    FDET_CHECK(spec.burst >= 1) << "fault burst must be >= 1";
  }
}

FaultPlan FaultPlan::parse(const std::string& text, std::uint64_t seed) {
  std::vector<FaultSpec> specs;
  std::istringstream stream(text);
  for (std::string token; std::getline(stream, token, ',');) {
    if (token.empty()) {
      continue;
    }
    const auto at = token.find('@');
    FDET_CHECK(at != std::string::npos)
        << "fault token '" << token << "' is not <kind>@<frame|prob>[xN]";
    const auto kind = kind_from_token(token.substr(0, at));
    FDET_CHECK(kind.has_value())
        << "unknown fault kind '" << token.substr(0, at)
        << "' in '" << token
        << "' (kinds: decode, corrupt, launch, const, shared, bitstream)";
    FaultSpec spec;
    spec.kind = *kind;
    std::string target = token.substr(at + 1);
    if (const auto x = target.find('x'); x != std::string::npos) {
      const std::string burst = target.substr(x + 1);
      try {
        spec.burst = std::stoi(burst);
      } catch (const std::exception&) {
        spec.burst = 0;  // rejected below with the token in the message
      }
      FDET_CHECK(spec.burst >= 1)
          << "fault burst '" << burst << "' in '" << token
          << "' must be a positive integer";
      target.resize(x);
    }
    try {
      if (target.find('.') != std::string::npos) {
        spec.probability = std::stod(target);
        spec.frame = -1;
      } else {
        spec.frame = std::stoi(target);
      }
    } catch (const std::exception&) {
      FDET_CHECK(false) << "fault target '" << target << "' in '" << token
                        << "' is neither a frame index nor a probability";
    }
    specs.push_back(spec);
  }
  return FaultPlan(seed, std::move(specs));
}

bool FaultPlan::fires(FaultKind kind, int frame, int attempt) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.kind != kind) {
      continue;
    }
    bool targeted;
    if (spec.frame >= 0) {
      targeted = spec.frame == frame;
    } else {
      core::Rng rng(core::hash_combine(
          core::hash_combine(seed_, kind_salt(kind)),
          static_cast<std::uint64_t>(frame)));
      targeted = rng.bernoulli(spec.probability);
    }
    if (!targeted) {
      continue;
    }
    if (is_hard(kind) || kind == FaultKind::kCorruptLuma ||
        attempt < spec.burst) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::targets_frame(int frame) const {
  for (const FaultSpec& spec : specs_) {
    if (fires(spec.kind, frame, 0)) {
      return true;
    }
  }
  return false;
}

std::vector<int> FaultPlan::targeted_frames() const {
  std::vector<int> frames;
  for (const FaultSpec& spec : specs_) {
    if (spec.frame >= 0) {
      frames.push_back(spec.frame);
    }
  }
  std::sort(frames.begin(), frames.end());
  frames.erase(std::unique(frames.begin(), frames.end()), frames.end());
  return frames;
}

std::string FaultPlan::describe() const {
  if (specs_.empty()) {
    return "(no faults)";
  }
  std::ostringstream out;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& spec = specs_[i];
    if (i > 0) {
      out << ",";
    }
    out << fault_kind_name(spec.kind) << "@";
    if (spec.frame >= 0) {
      out << spec.frame;
    } else {
      out << spec.probability;
    }
    if (spec.burst > 1) {
      out << "x" << spec.burst;
    }
  }
  return out.str();
}

void corrupt_luma(img::ImageU8& luma, std::uint64_t seed) {
  FDET_CHECK(!luma.empty()) << "cannot corrupt an empty luma plane";
  core::Rng rng(seed);
  const int band = std::max(1, luma.height() / 4);
  const int y0 = rng.uniform_int(0, luma.height() - band);
  for (int y = y0; y < y0 + band; ++y) {
    for (std::uint8_t& px : luma.row(y)) {
      px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }
}

AttemptObserver::AttemptObserver(const FaultPlan* plan, int frame,
                                 int attempt, obs::FlightRecorder* recorder,
                                 double base_us)
    : frame_(frame), attempt_(attempt), recorder_(recorder),
      base_us_(base_us) {
  if (plan != nullptr) {
    transient_ = plan->fires(FaultKind::kLaunchTransient, frame, attempt);
    constant_ = plan->fires(FaultKind::kConstantOverflow, frame, attempt);
    shared_ = plan->fires(FaultKind::kSharedOverflow, frame, attempt);
  }
}

void AttemptObserver::before_launch(const vgpu::KernelConfig& config) {
  const char* fault = nullptr;
  if (transient_) {
    fault = "transient launch failure";
  } else if (constant_ && config.constant_bytes > 0) {
    fault = "constant-memory overflow";
  } else if (shared_ && config.shared_bytes > 0) {
    fault = "shared-memory overflow";
  }
  if (fired_ || fault == nullptr) {
    return;
  }
  fired_ = true;
  throw vgpu::LaunchError(
      std::string("injected ") + fault + " on '" + config.name + "' (frame " +
          std::to_string(frame_) +
          (transient_ ? ", attempt " + std::to_string(attempt_) : "") + ")",
      transient_);
}

void AttemptObserver::on_scheduled(const vgpu::LaunchRecord& record) {
  if (recorder_ == nullptr) {
    return;
  }
  obs::FlightEvent event;
  event.kind = obs::FlightEventKind::kLaunch;
  event.frame = frame_;
  event.ts_us = base_us_ + record.start_s * 1e6;
  event.dur_us = record.duration_s() * 1e6;
  event.value = static_cast<double>(record.blocks);
  event.set_name(record.name.c_str());
  if (const obs::TraceContext* context = obs::current_trace_context()) {
    event.set_context(*context);
  }
  recorder_->record(event);
}

const char* device_fault_kind_name(DeviceFaultKind kind) {
  switch (kind) {
    case DeviceFaultKind::kDeviceLost: return "device-lost";
    case DeviceFaultKind::kDeviceHang: return "device-hang";
    case DeviceFaultKind::kDeviceSlow: return "device-slow";
  }
  return "?";
}

namespace {

std::optional<DeviceFaultKind> device_kind_from_token(std::string_view token) {
  if (token == "device-lost") return DeviceFaultKind::kDeviceLost;
  if (token == "device-hang") return DeviceFaultKind::kDeviceHang;
  if (token == "device-slow") return DeviceFaultKind::kDeviceSlow;
  return std::nullopt;
}

bool is_outage(DeviceFaultKind kind) {
  return kind == DeviceFaultKind::kDeviceLost ||
         kind == DeviceFaultKind::kDeviceHang;
}

}  // namespace

DeviceFaultPlan::DeviceFaultPlan(std::uint64_t seed,
                                 std::vector<DeviceFaultSpec> specs)
    : seed_(seed), specs_(std::move(specs)) {
  for (const DeviceFaultSpec& spec : specs_) {
    const char* name = device_fault_kind_name(spec.kind);
    if (spec.device < 0) {
      FDET_CHECK(spec.kind == DeviceFaultKind::kDeviceSlow)
          << "device fault '" << name
          << "' needs an explicit device (only device-slow is probabilistic)";
      FDET_CHECK(spec.probability > 0.0 && spec.probability <= 1.0)
          << "probabilistic device-slow needs probability in (0, 1]";
    } else {
      FDET_CHECK(spec.start_s >= 0.0)
          << "device fault '" << name << "' onset must be >= 0";
      FDET_CHECK(spec.duration_s > 0.0)
          << "device fault '" << name << "' duration must be > 0";
    }
    if (spec.kind == DeviceFaultKind::kDeviceSlow) {
      FDET_CHECK(spec.factor > 1.0)
          << "device-slow factor must be > 1 (got " << spec.factor << ")";
    }
  }
  // Outage windows on one device must not overlap — the fleet's health
  // machine assumes one down-window is fully processed before the next.
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!is_outage(specs_[i].kind) || specs_[i].device < 0) {
      continue;
    }
    for (std::size_t j = i + 1; j < specs_.size(); ++j) {
      if (!is_outage(specs_[j].kind) ||
          specs_[j].device != specs_[i].device) {
        continue;
      }
      const double a0 = specs_[i].start_s;
      const double a1 = a0 + specs_[i].duration_s;
      const double b0 = specs_[j].start_s;
      const double b1 = b0 + specs_[j].duration_s;
      FDET_CHECK(a1 <= b0 || b1 <= a0)
          << "overlapping outage windows on device " << specs_[i].device
          << " ([" << a0 << ", " << a1 << ") and [" << b0 << ", " << b1
          << "))";
    }
  }
}

DeviceFaultPlan DeviceFaultPlan::parse(const std::string& text,
                                       std::uint64_t seed) {
  std::vector<DeviceFaultSpec> specs;
  std::istringstream stream(text);
  for (std::string token; std::getline(stream, token, ',');) {
    if (token.empty()) {
      continue;
    }
    const auto at = token.find('@');
    FDET_CHECK(at != std::string::npos)
        << "device fault token '" << token
        << "' is not <kind>@<device>:<start>+<dur>[*f] or device-slow@<p>[*f]";
    const auto kind = device_kind_from_token(token.substr(0, at));
    FDET_CHECK(kind.has_value())
        << "unknown device fault kind '" << token.substr(0, at) << "' in '"
        << token << "' (kinds: device-lost, device-hang, device-slow)";
    DeviceFaultSpec spec;
    spec.kind = *kind;
    std::string target = token.substr(at + 1);
    if (const auto star = target.find('*'); star != std::string::npos) {
      const std::string factor = target.substr(star + 1);
      try {
        spec.factor = std::stod(factor);
      } catch (const std::exception&) {
        spec.factor = 0.0;  // rejected by the ctor with the token context
      }
      FDET_CHECK(spec.factor > 1.0)
          << "device-slow factor '" << factor << "' in '" << token
          << "' must be a number > 1";
      target.resize(star);
    }
    try {
      if (const auto colon = target.find(':'); colon != std::string::npos) {
        spec.device = std::stoi(target.substr(0, colon));
        std::string window = target.substr(colon + 1);
        const auto plus = window.find('+');
        FDET_CHECK(plus != std::string::npos)
            << "device fault window '" << window << "' in '" << token
            << "' is not <start_s>+<duration_s>";
        spec.start_s = std::stod(window.substr(0, plus));
        spec.duration_s = std::stod(window.substr(plus + 1));
      } else {
        spec.device = -1;
        spec.probability = std::stod(target);
      }
    } catch (const core::CheckError&) {
      throw;
    } catch (const std::exception&) {
      FDET_CHECK(false) << "device fault target '" << target << "' in '"
                        << token << "' did not parse";
    }
    specs.push_back(spec);
  }
  return DeviceFaultPlan(seed, std::move(specs));
}

std::vector<const DeviceFaultSpec*> DeviceFaultPlan::outages(
    int device) const {
  std::vector<const DeviceFaultSpec*> windows;
  for (const DeviceFaultSpec& spec : specs_) {
    if (is_outage(spec.kind) && spec.device == device) {
      windows.push_back(&spec);
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const DeviceFaultSpec* a, const DeviceFaultSpec* b) {
              return a->start_s < b->start_s;
            });
  return windows;
}

double DeviceFaultPlan::slow_factor(int device, int stream, int frame,
                                    double at_s) const {
  double factor = 1.0;
  for (const DeviceFaultSpec& spec : specs_) {
    if (spec.kind != DeviceFaultKind::kDeviceSlow) {
      continue;
    }
    if (spec.device >= 0) {
      if (spec.device == device && at_s >= spec.start_s &&
          at_s < spec.start_s + spec.duration_s) {
        factor *= spec.factor;
      }
    } else {
      core::Rng rng(core::hash_combine(
          core::hash_combine(seed_, 0x51040 + static_cast<std::uint64_t>(
                                                  device)),
          core::hash_combine(static_cast<std::uint64_t>(stream),
                             static_cast<std::uint64_t>(frame))));
      if (rng.bernoulli(spec.probability)) {
        factor *= spec.factor;
      }
    }
  }
  return factor;
}

std::string DeviceFaultPlan::describe() const {
  if (specs_.empty()) {
    return "(no device faults)";
  }
  std::ostringstream out;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const DeviceFaultSpec& spec = specs_[i];
    if (i > 0) {
      out << ",";
    }
    out << device_fault_kind_name(spec.kind) << "@";
    if (spec.device >= 0) {
      out << spec.device << ":" << spec.start_s << "+" << spec.duration_s;
    } else {
      out << spec.probability;
    }
    if (spec.kind == DeviceFaultKind::kDeviceSlow) {
      out << "*" << spec.factor;
    }
  }
  return out.str();
}

MixedFaultPlan parse_mixed_fault_plan(const std::string& text,
                                      std::uint64_t seed) {
  std::string frame_tokens;
  std::string device_tokens;
  std::istringstream stream(text);
  for (std::string token; std::getline(stream, token, ',');) {
    if (token.empty()) {
      continue;
    }
    std::string& sink = token.rfind("device-", 0) == 0 ? device_tokens
                                                       : frame_tokens;
    if (!sink.empty()) {
      sink += ',';
    }
    sink += token;
  }
  MixedFaultPlan mixed;
  mixed.frame = FaultPlan::parse(frame_tokens, seed);
  mixed.device = DeviceFaultPlan::parse(device_tokens, seed);
  return mixed;
}

}  // namespace fdet::serve
