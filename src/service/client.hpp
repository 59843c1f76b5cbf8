// Client side of the evaluation service: a thin blocking wrapper over the
// line-delimited JSON protocol, used by `evaltool` client mode, the
// service benches, and the integration tests.
#pragma once

#include <functional>
#include <string>

#include "src/service/job.hpp"
#include "src/common/json.hpp"

namespace sca::service {

class ServiceClient {
 public:
  /// Connects to the daemon at `socket_path`, retrying while it starts up
  /// (50 ms apart, up to `retries` attempts). Throws common::Error when the
  /// daemon never becomes reachable.
  explicit ServiceClient(const std::string& socket_path, unsigned retries = 100);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Submits a job; returns the daemon's `submitted` ack
  /// (job id, cache key, cached flag). Throws on protocol errors and on
  /// daemon `error` replies.
  common::Json submit(const JobSpec& spec);

  /// Streams the job's stage frames into `sink` (may be null) until its
  /// result frame arrives; returns the result frame.
  common::Json watch(const std::string& job,
                     const std::function<void(const common::Json&)>& sink);

  /// Fetches the job's result. With `wait`, parks until the job finishes;
  /// otherwise a `pending` frame may come back.
  common::Json result(const std::string& job, bool wait);

  /// Daemon counters (workers restarted, tickets reissued, cache hits, ...).
  common::Json status();

  /// Asks the daemon to exit; returns its `bye` frame.
  common::Json shutdown();

  /// Sends one raw protocol line (no trailing newline needed) and returns
  /// the next reply frame *unparsed* — the negative-path hook that lets
  /// tests throw malformed bytes at the daemon and inspect the verbatim
  /// answer.
  std::string roundtrip_raw(const std::string& line);

  int fd() const { return fd_; }

 private:
  common::Json roundtrip(const common::Json& request);
  common::Json read_frame();

  int fd_ = -1;
  std::string carry_;
};

}  // namespace sca::service
