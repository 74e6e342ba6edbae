#include "server/session.hpp"

#include <exception>
#include <utility>

#include "model/textio.hpp"
#include "support/json.hpp"

namespace sekitei::server {

namespace wire = service::wire;

Session::Session(std::uint64_t id, sock::Socket socket, SessionHost& host,
                 Options opt)
    : id_(id), sock_(std::move(socket)), host_(host), opt_(opt) {}

Session::~Session() { join(); }

void Session::start() {
  thread_ = std::thread([this] { run(); });
}

void Session::join() {
  if (joined_.exchange(true, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
}

void Session::run() {
  host_.quota().session_opened();
  wire::FrameDecoder decoder(opt_.max_frame_bytes);
  std::string chunk;
  double idle_ms = 0.0;

  while (true) {
    if (host_.stopping()) {
      cancel_inflight();
      break;
    }
    chunk.clear();
    const sock::RecvStatus st = sock::recv_some(sock_, chunk, opt_.poll_tick_ms);
    if (st == sock::RecvStatus::Eof || st == sock::RecvStatus::Error) break;
    if (st == sock::RecvStatus::Timeout) {
      // A draining session keeps reading (pipelined requests behind in-flight
      // ones still deserve their "draining" rejection) and closes once its
      // in-flight work has been answered.
      if (host_.draining() && inflight() == 0) break;
      idle_ms += opt_.poll_tick_ms;
      if (opt_.idle_timeout_ms > 0 && idle_ms >= opt_.idle_timeout_ms &&
          inflight() == 0 && !host_.draining()) {
        break;
      }
      continue;
    }
    idle_ms = 0.0;
    bytes_in_.fetch_add(chunk.size(), std::memory_order_relaxed);
    decoder.feed(chunk);

    std::string body;
    bool close_now = false;
    for (;;) {
      const auto fs = decoder.next(body);
      if (fs == wire::FrameDecoder::Status::NeedMore) break;
      if (fs == wire::FrameDecoder::Status::Error) {
        // Framing is broken (oversized frame, garbage length line): answer
        // once with the reason, then drop the connection — there is no way
        // to find the next frame boundary in a corrupt prefix stream.
        (void)write_frame(wire::render_response_frame(
            wire::make_rejected("", "protocol error: " + decoder.error())));
        close_now = true;
        break;
      }
      if (!handle_frame(body)) {
        close_now = true;
        break;
      }
    }
    if (close_now) break;
  }

  // Every accepted request is answered before the fd closes; inflight_ drops
  // to zero only after the completion callback's write, so no worker thread
  // can still be inside send(2) when close() runs.
  wait_inflight_drained();
  sock_.close();
  host_.quota().session_closed();
  finished_.store(true, std::memory_order_release);
}

bool Session::handle_frame(const std::string& body) {
  wire::WireRequest req;
  std::string err;
  if (!wire::parse_request(body, req, err)) {
    // The framing survived, only this body was bad — answer and keep going.
    return write_frame(wire::render_response_frame(
        wire::make_rejected(req.id, "bad request: " + err)));
  }

  switch (req.op) {
    case wire::WireRequest::Op::Healthz:
      return write_frame(wire::encode_frame(host_.healthz_body()));
    case wire::WireRequest::Op::Stats:
      return write_frame(wire::encode_frame(host_.stats_body()));
    case wire::WireRequest::Op::Plan:
      break;
  }

  if (req.id.empty()) {
    // Built piecewise: GCC 12 raises a false -Wrestrict on operator+ here.
    std::string id = "s";
    id += std::to_string(id_);
    id += '-';
    id += std::to_string(next_request_++);
    req.id = std::move(id);
  }

  if (host_.draining() || host_.stopping()) {
    respond(wire::make_rejected(req.id, "draining: daemon is shutting down"));
    return true;
  }

  const QuotaGate::Verdict verdict = host_.quota().try_acquire(inflight());
  if (verdict != QuotaGate::Verdict::Admitted) {
    respond(wire::make_rejected(
        req.id, std::string("quota exceeded (") + quota_verdict_name(verdict) +
                    "): retry with backoff"));
    return true;
  }

  handle_plan(std::move(req));
  return true;
}

void Session::handle_plan(wire::WireRequest&& req) {
  std::shared_ptr<const model::LoadedProblem> problem;
  try {
    problem = host_.load_problem_text(req.problem_text);
  } catch (const std::exception& e) {
    host_.quota().release();
    respond(wire::make_rejected(req.id, std::string("bad problem: ") + e.what()));
    return;
  }

  StopSource stop;
  const std::string rid = req.id;
  bool duplicate;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    // A duplicate in-flight id would make the stop map (and the client's
    // response matching) ambiguous — refuse the second one.
    duplicate = !inflight_stops_.emplace(rid, stop).second;
  }
  if (duplicate) {
    host_.quota().release();
    respond(wire::make_rejected(rid, "duplicate in-flight request id"));
    return;
  }
  inflight_.fetch_add(1, std::memory_order_acq_rel);

  host_.submit(
      std::move(req), std::move(problem), stop,
      [this, rid](service::PlanResponse&& r) {
        respond(r);
        host_.quota().release();
        host_.request_served();
        // The decrement must be the callback's LAST touch of the session:
        // once inflight_ hits zero the reader thread exits and the daemon
        // may destroy `this`.  Erase + decrement + notify under the lock so
        // wait_inflight_drained() cannot observe zero until the unlock —
        // the final access — has completed.
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_stops_.erase(rid);
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        inflight_cv_.notify_all();
      });
}

bool Session::write_frame(const std::string& frame) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!sock_.valid()) return false;
  if (!sock::send_all(sock_, frame)) return false;
  bytes_out_.fetch_add(frame.size(), std::memory_order_relaxed);
  return true;
}

void Session::respond(const service::PlanResponse& r) {
  const std::string frame = wire::render_response_frame(r);
  (void)write_frame(frame);  // a vanished peer is detected by the read loop

  std::string line = "{\"access\":1,\"session\":";
  json::append_number(line, static_cast<std::uint64_t>(id_));
  line += ",\"request\":";
  json::append_escaped(line, r.id);
  line += ",\"outcome\":";
  json::append_escaped(line, service::outcome_name(r.outcome));
  line += ",\"solve_ms\":";
  json::append_number(line, r.solve_ms);
  line += ",\"wait_ms\":";
  json::append_number(line, r.wait_ms);
  line += ",\"bytes\":";
  json::append_number(line, static_cast<std::uint64_t>(frame.size()));
  line += "}\n";
  host_.access_log(line);
}

void Session::arm_inflight_deadline(double ms) {
  const std::int64_t target =
      StopSource::now_epoch_ns() + static_cast<std::int64_t>(ms * 1e6);
  std::lock_guard<std::mutex> lock(inflight_mu_);
  for (auto& [id, src] : inflight_stops_) {
    const std::int64_t current = src.deadline_epoch_ns();
    // Tighten only: a request whose own deadline already fires sooner keeps
    // it — drain must never *extend* a client's budget.
    if (current == 0 || current > target) src.arm_deadline_at_ns(target);
  }
}

void Session::cancel_inflight() {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  for (auto& [id, src] : inflight_stops_) src.request_stop();
}

void Session::wait_inflight_drained() {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace sekitei::server
