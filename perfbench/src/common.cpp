#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p * n), 1.0, n));
  return values[rank - 1];
}

void spin_us(double us) {
  if (us <= 0.0) {
    return;
  }
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(us));
  while (Clock::now() < until) {
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Gate::require(bool ok, const std::string& failure) {
  if (!ok) {
    std::cerr << "perfbench: correctness gate failed: " << failure << "\n";
    failures_.push_back(failure);
  }
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= bytes[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(const std::vector<fdet::detect::Detection>& detections) {
  add(static_cast<std::int64_t>(detections.size()));
  for (const fdet::detect::Detection& d : detections) {
    const std::int64_t fields[] = {d.box.x, d.box.y, d.box.w, d.box.h,
                                   d.neighbors, d.scale_index};
    add_bytes(fields, sizeof fields);
    add_bytes(&d.score, sizeof d.score);
  }
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(h_));
  return buffer;
}

std::uint64_t SpanLog::add(const std::string& name, const char* category,
                           Clock::time_point start, Clock::time_point end,
                           std::uint64_t parent, std::string args) {
  spans_.push_back({name, category, seconds_between(origin_, start) * 1e6,
                    seconds_between(start, end) * 1e6, parent,
                    std::move(args)});
  return spans_.size();
}

std::uint64_t SpanLog::open() {
  spans_.push_back({});
  return spans_.size();
}

void SpanLog::close(std::uint64_t id, const std::string& name,
                    const char* category, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    std::string args) {
  spans_[id - 1] = {name, category, seconds_between(origin_, start) * 1e6,
                    seconds_between(start, end) * 1e6, parent,
                    std::move(args)};
}

void SpanLog::write(const std::string& path,
                    const std::string& metadata) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  out << "{\"metadata\":" << metadata << ",\"traceEvents\":[";
  char buffer[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buffer, sizeof buffer,
                  "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%llu",
                  s.category, s.start_us, s.dur_us, i + 1,
                  static_cast<unsigned long long>(s.parent));
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << buffer;
    if (!s.args.empty()) {
      out << "," << s.args;
    }
    out << "}}";
  }
  out << "\n]}\n";
  if (!out) {
    throw std::runtime_error("failed writing trace file " + path);
  }
}

LaunchStats& LaunchStats::operator+=(const LaunchStats& o) {
  launches += o.launches;
  blocks += o.blocks;
  warps += o.warps;
  lane_ops += o.lane_ops;
  blocks_per_launch.insert(blocks_per_launch.end(),
                           o.blocks_per_launch.begin(),
                           o.blocks_per_launch.end());
  return *this;
}

LaunchCounter::LaunchCounter(LaunchStats& stats, double delay_us,
                             std::optional<Clock::time_point> origin)
    : hook_([&stats, delay_us, origin](const fdet::vgpu::DeviceSpec&,
                                       const fdet::vgpu::LaunchCost& cost) {
        if (origin) {
          stats.end_s.push_back(seconds_since(*origin));
        }
        const fdet::vgpu::PerfCounters& c = cost.counters;
        ++stats.launches;
        stats.blocks += cost.block_count();
        stats.warps += static_cast<std::int64_t>(c.warps);
        stats.lane_ops += static_cast<std::int64_t>(
            c.arithmetic_ops() + c.shared_accesses + c.constant_accesses +
            c.texture_fetches);
        stats.blocks_per_launch.push_back(
            static_cast<double>(cost.block_count()));
        spin_us(delay_us);
      }) {}

DecodeTimer::DecodeTimer(const fdet::ingest::FrameSource& inner,
                         DecodeLog& log, int stream)
    : inner_(&inner), log_(&log), stream_(stream) {}

fdet::video::DecodedFrame DecodeTimer::decode(int index) const {
  const Clock::time_point t0 = Clock::now();
  log_->starts.push_back(seconds_between(log_->origin, t0));
  ++log_->calls;
  spin_us(log_->delay_us);
  fdet::video::DecodedFrame frame = inner_->decode(index);
  if (log_->spans != nullptr) {
    const Clock::time_point t1 = Clock::now();
    log_->host_s += seconds_between(t0, t1);
    log_->ends.push_back(seconds_between(log_->origin, t1));
    log_->spans->add("decode", "ingest", t0, t1, 0,
                "\"stream\":" + std::to_string(stream_) +
                    ",\"frame\":" + std::to_string(index));
  }
  return frame;
}

std::vector<double> decode_gaps(const DecodeLog& log) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < log.starts.size(); ++i) {
    gaps.push_back(log.starts[i] - log.starts[i - 1]);
  }
  return gaps;
}

double detection_in_run(const DecodeLog& log, const LaunchStats& launches) {
  double total = 0.0;
  std::size_t next_launch = 0;
  for (std::size_t i = 0; i < log.ends.size(); ++i) {
    const double next_decode = i + 1 < log.starts.size()
                                   ? log.starts[i + 1]
                                   : std::numeric_limits<double>::infinity();
    double last = -1.0;
    while (next_launch < launches.end_s.size() &&
           launches.end_s[next_launch] < next_decode) {
      last = launches.end_s[next_launch++];
    }
    if (last >= log.ends[i]) {
      total += last - log.ends[i];
    }
  }
  return total;
}

}  // namespace perfbench
