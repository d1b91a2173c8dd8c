// campaign_ripe: the paper's §3.1.2 measurement loop at RIPE-style scale.
#pragma once

#include <cstdint>
#include <vector>

#include "measure/testbed.hpp"
#include "measure/trial.hpp"
#include "report.hpp"

namespace perfbench {

/// Clients in the campaign; each runs 6 providers x 10 trials.
inline constexpr int kCampaignClients = 120;
/// Worker threads of the measured campaign.
inline constexpr int kCampaignThreads = 2;

/// The RIPE-style testbed every workload is built on, at kCampaignClients
/// clients.
drongo::measure::TestbedConfig ripe_config();

/// FNV-1a digest of the records' dataset serialization: two campaigns
/// produced the same records exactly when their digests agree.
std::uint64_t campaign_digest(const std::vector<drongo::measure::TrialRecord>& records);

/// Runs the workload (end-to-end metrics, or the per-layer breakdown when
/// options.trace) and fills `result`.
void run_campaign(const RunOptions& options, Result& result);

}  // namespace perfbench
