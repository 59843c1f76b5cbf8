// Worker side of the evaluation service: a forked child process that
// executes work tickets over a socketpair to the daemon.
//
// A ticket names a job (full spec inline) plus the job's checkpoint path,
// and means "advance that checkpoint by one step": one evaluation stage
// for campaign jobs, one chunk batch for search jobs, the whole pass for
// lint jobs. Execution goes through the existing engine entry points
// (eval::run_fixed_vs_random, lint::run_lint, eval::search_kron2_family13)
// with resume = true — the fingerprint check inside those entry points is
// the ticket's integrity check, so a stale or mismatched checkpoint is an
// error, never silently mixed work. The worker streams tagged StageReport
// JSON frames while a ticket runs and ends every ticket with a
// `ticket_done` (partial or final verdict) or `ticket_error` frame.
//
// Workers are disposable by design: all durable state lives in the
// checkpoint file, so SIGKILL at any instant costs at most the current
// ticket, which the daemon re-issues against the last checkpoint.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/campaign.hpp"
#include "src/core/search.hpp"
#include "src/service/job.hpp"
#include "src/common/json.hpp"

namespace sca::service {

/// Deterministic, timing-free verdict object for a finished search window
/// (the search analogue of eval::verdict_json). Byte-identical across
/// thread counts, interruptions, and worker handoffs.
common::Json search_verdict_json(
    const eval::SecondOrderSearchResult& result);

/// Runs the worker protocol loop over `fd` (both directions) until the
/// daemon closes the connection or sends a shutdown frame. Never throws;
/// returns the process exit code.
int worker_main(int fd);

}  // namespace sca::service
