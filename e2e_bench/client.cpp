#include "client.h"

#include <sys/prctl.h>

#include <chrono>
#include <cmath>
#include <deque>
#include <thread>

#include "common/stopwatch.h"

namespace e2e {

namespace {

constexpr f64 kPollUs = 50.0;  // longest open-loop sleep between polls

f64 now_us() { return monotonic_now_us(); }

void count_window(Traffic& t) {
  for (const Outcome& o : t.outcomes)
    if (o.status == RequestStatus::kOk && o.done_us <= t.end_us)
      ++t.images_in_window;
}

}  // namespace

Traffic Client::closed(i64 window,
                       const std::function<bool(f64)>& keep_going) {
  Traffic t;
  std::deque<InFlight> inflight;
  t.start_us = now_us();
  // A request is due when its slot frees (the previous reply was seen).
  f64 due = t.start_us;
  bool going = true;
  while (true) {
    if (going && !keep_going((now_us() - t.start_us) / 1e6)) {
      going = false;
      t.end_us = now_us();
    }
    while (going && static_cast<i64>(inflight.size()) < window) {
      t.lag_ms.push_back((now_us() - due) / 1e3);
      inflight.push_back(send(due));
    }
    if (inflight.empty()) break;
    complete(inflight.front(), t);
    inflight.pop_front();
    due = now_us();
  }
  count_window(t);
  return t;
}

// One thread both sends on schedule and polls for replies, so each reply
// is seen when it lands, not behind earlier requests. Between polls it
// sleeps (at most kPollUs, with minimal timer slack) instead of spinning,
// leaving the host's cores to the workers and the lane.
Traffic Client::open(f64 rate_rps,
                     const std::function<bool(f64)>& keep_going) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Traffic t;
  std::vector<InFlight> inflight;
  t.start_us = now_us();
  f64 due = t.start_us + gap_us(rate_rps);
  while (true) {
    const f64 now = now_us();
    if (now >= due) {
      if (!keep_going((due - t.start_us) / 1e6)) break;
      t.lag_ms.push_back((now - due) / 1e3);
      inflight.push_back(send(due));
      due += gap_us(rate_rps);
      continue;
    }
    for (size_t i = 0; i < inflight.size();) {
      if (inflight[i].future.poll()) {
        complete(inflight[i], t);
        inflight[i] = std::move(inflight.back());
        inflight.pop_back();
      } else {
        ++i;
      }
    }
    const f64 nap_us = std::min(kPollUs, due - now_us());
    if (nap_us > 0.0)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(static_cast<i64>(nap_us * 1e3)));
  }
  t.end_us = now_us();
  for (InFlight& f : inflight) complete(f, t);
  count_window(t);
  return t;
}

f64 Client::gap_us(f64 rate_rps) {
  return -std::log(1.0 - rng_.uniform()) / rate_rps * 1e6;
}

Client::InFlight Client::send(f64 due_us) {
  InFlight f;
  f.image = next_ < kSampleImages
                ? next_
                : static_cast<i64>(
                      rng_.uniform_index(static_cast<u64>(pool_.size())));
  ++next_;
  Tensor image = pool_.batch_images(f.image, 1);
  f.due_us = due_us;
  f.submit_us = now_us();
  f.future = engine_.submit(std::move(image));
  f.submitted_us = now_us();
  return f;
}

void Client::complete(InFlight& f, Traffic& t) {
  const InferenceResponse r = f.future.get();
  Outcome o;
  o.status = r.status;
  o.due_us = f.due_us;
  o.submit_us = f.submit_us;
  o.submitted_us = f.submitted_us;
  o.done_us = now_us();
  o.queue_us = r.queue_us;
  o.total_us = r.total_us;
  t.outcomes.push_back(o);
  if (captured_ != nullptr && f.image < kSampleImages &&
      r.status == RequestStatus::kOk &&
      (*captured_)[static_cast<size_t>(f.image)].empty())
    (*captured_)[static_cast<size_t>(f.image)] = r.logits;
  if (!tracer_.enabled()) return;
  // The engine stamps its submit time inside submit(); submit_us is the
  // closest time the client knows, so derived spans start there.
  const i64 id = static_cast<i64>(r.id);
  const f64 ready = o.submit_us + o.total_us;
  const i64 root = tracer_.record("request", "bench", o.due_us, o.done_us, id);
  tracer_.record("submit", "runtime", o.submit_us, o.submitted_us, id, root);
  tracer_.record("queue", "runtime", o.submit_us, o.submit_us + o.queue_us,
                 id, root);
  tracer_.record("service", "runtime", o.submit_us + o.queue_us, ready, id,
                 root);
  tracer_.record("wake", "runtime", ready, o.done_us, id, root);
}

}  // namespace e2e
