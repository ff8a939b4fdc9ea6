#include "vgpu/tap.h"

#include <vector>

namespace fdet::vgpu {
namespace {

thread_local std::vector<LaunchObserver*> g_observers;

}  // namespace

ScopedLaunchObserver::ScopedLaunchObserver(LaunchObserver& observer) {
  g_observers.push_back(&observer);
}

ScopedLaunchObserver::~ScopedLaunchObserver() { g_observers.pop_back(); }

std::span<LaunchObserver* const> launch_observers() { return g_observers; }

}  // namespace fdet::vgpu
