#include "src/service/client.hpp"

#include <cerrno>
#include <cstring>
#include <ctime>

#include <unistd.h>

#include "src/common/check.hpp"
#include "src/service/net.hpp"

namespace sca::service {

using common::Json;
using common::require;

ServiceClient::ServiceClient(const std::string& socket_path, unsigned retries) {
  for (unsigned attempt = 0;; ++attempt) {
    fd_ = connect_unix(socket_path);
    if (fd_ >= 0) return;
    require(attempt + 1 < retries,
            "client: cannot connect to " + socket_path + ": " +
                std::strerror(errno));
    timespec ts{0, 50'000'000L};
    ::nanosleep(&ts, nullptr);
  }
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

Json ServiceClient::read_frame() {
  std::string line;
  require(recv_line(fd_, carry_, line), "client: daemon closed the connection");
  return Json::parse(line);
}

Json ServiceClient::roundtrip(const Json& request) {
  require(send_all(fd_, request.dump() + "\n"), "client: send failed");
  Json reply = read_frame();
  require(reply.get_string("type", "") != "error",
          "client: daemon error: " + reply.get_string("error", "?"));
  return reply;
}

std::string ServiceClient::roundtrip_raw(const std::string& line) {
  require(send_all(fd_, line + "\n"), "client: send failed");
  std::string reply;
  require(recv_line(fd_, carry_, reply),
          "client: daemon closed the connection");
  return reply;
}

Json ServiceClient::submit(const JobSpec& spec) {
  Json request = Json::object();
  request.set("cmd", "submit");
  request.set("spec", spec.to_json());
  return roundtrip(request);
}

Json ServiceClient::watch(const std::string& job,
                          const std::function<void(const Json&)>& sink) {
  Json request = Json::object();
  request.set("cmd", "watch");
  request.set("job", job);
  Json ack = roundtrip(request);
  require(ack.get_string("type", "") == "watching",
          "client: unexpected watch ack");
  while (true) {
    Json frame = read_frame();
    const std::string type = frame.get_string("type", "");
    if (type == "result") return frame;
    require(type != "error",
            "client: daemon error: " + frame.get_string("error", "?"));
    if (sink) sink(frame);
  }
}

Json ServiceClient::result(const std::string& job, bool wait) {
  Json request = Json::object();
  request.set("cmd", "result");
  request.set("job", job);
  request.set("wait", wait);
  return roundtrip(request);
}

Json ServiceClient::status() {
  Json request = Json::object();
  request.set("cmd", "status");
  return roundtrip(request);
}

Json ServiceClient::shutdown() {
  Json request = Json::object();
  request.set("cmd", "shutdown");
  return roundtrip(request);
}

}  // namespace sca::service
