// Load generators: a closed loop (fixed number of requests outstanding)
// and an open loop (seeded Poisson arrivals at a fixed rate), both
// recording every request as the client saw it.
#pragma once

#include <functional>
#include <vector>

#include "fixture.h"
#include "trace.h"

namespace e2e {

/// One request as the client saw it (monotonic_now_us clock).
struct Outcome {
  RequestStatus status = RequestStatus::kPending;
  f64 due_us = 0.0;        ///< when it was due (closed loop: its slot freed)
  f64 submit_us = 0.0;     ///< submit() entered
  f64 submitted_us = 0.0;  ///< submit() returned
  f64 done_us = 0.0;       ///< the client saw the reply
  f64 queue_us = 0.0;      ///< engine: submit -> dispatch
  f64 total_us = 0.0;      ///< engine: submit -> reply ready
};

/// The client side of one traffic phase.
struct Traffic {
  std::vector<Outcome> outcomes;
  f64 start_us = 0.0;
  f64 end_us = 0.0;          ///< when the load generator stopped
  i64 images_in_window = 0;  ///< kOk replies seen before end_us
  std::vector<f64> lag_ms;   ///< send time - due time
};

/// Drives one engine with single-image requests drawn from `pool`: rows
/// [0, kSampleImages) first, then seeded random rows. When `captured` is
/// non-null, the first kOk reply for each of those sample rows is kept
/// there. With an enabled tracer every completed request records its
/// spans (request, submit, queue, service, wake).
class Client {
 public:
  Client(ServingEngine& engine, const Dataset& pool, Rng& rng,
         Tracer& tracer, std::vector<Tensor>* captured)
      : engine_(engine), pool_(pool), rng_(rng), tracer_(tracer),
        captured_(captured) {}

  /// Keeps `window` requests outstanding while keep_going(elapsed_s).
  Traffic closed(i64 window, const std::function<bool(f64)>& keep_going);

  /// Poisson arrivals at `rate_rps` while keep_going(elapsed_s).
  Traffic open(f64 rate_rps, const std::function<bool(f64)>& keep_going);

 private:
  struct InFlight {
    ResponseFuture future;
    i64 image = 0;
    f64 due_us = 0.0, submit_us = 0.0, submitted_us = 0.0;
  };

  f64 gap_us(f64 rate_rps);
  InFlight send(f64 due_us);
  void complete(InFlight& f, Traffic& t);

  ServingEngine& engine_;
  const Dataset& pool_;
  Rng& rng_;
  Tracer& tracer_;
  std::vector<Tensor>* captured_;
  i64 next_ = 0;
};

}  // namespace e2e
