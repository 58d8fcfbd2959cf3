#include "serve/decode_scheduler.h"

#include <algorithm>

#include "util/check.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace glsc::serve {

DecodeScheduler::DecodeScheduler(const core::ArchiveReader* reader,
                                 api::Compressor* codec,
                                 const ScheduleOptions& options)
    : reader_(reader), options_(options) {
  GLSC_CHECK(reader_ != nullptr && codec != nullptr);
  if (codec->name() != reader_->codec()) {
    throw StatusError(ErrorCode::kInvalidArgument,
                      "archive was written by codec '" + reader_->codec() +
                          "' but decode codec is '" + codec->name() + "'");
  }
  GLSC_CHECK_MSG(options_.workers >= 1, "workers must be >= 1");
  workers_.push_back(codec);
  while (static_cast<std::int64_t>(workers_.size()) < options_.workers) {
    clones_.push_back(codec->Clone());
    workers_.push_back(clones_.back().get());
  }
  worker_mu_.reserve(workers_.size());
  workspaces_.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    worker_mu_.push_back(std::make_unique<Mutex>(
        "DecodeScheduler.worker_mu", lockrank::kDecodeWorkerSlot));
    workspaces_.push_back(std::make_unique<tensor::Workspace>());
  }
}

std::vector<DecodeScheduler::Decoded> DecodeScheduler::DecodeRecords(
    const std::vector<std::size_t>& records, std::size_t worker) {
  // Per-worker lock: concurrent Get() calls fan out over the same worker
  // slots, and model instances are not thread-safe. Held only for the decode
  // itself (never across a pool or flight wait), so this cannot deadlock.
  MutexLock lock(*worker_mu_[worker]);
  api::Compressor* codec = workers_[worker];
  tensor::Workspace* ws = workspaces_[worker].get();
  std::vector<Decoded> out(records.size());

  // Injector hook and payload read per record; a record failing here leaves
  // the batch. Payloads the reader cannot expose in place are read into
  // `held`, reserved up front because `payloads` points into it.
  std::vector<std::size_t> live;  // positions in `records` still batched
  std::vector<std::vector<std::uint8_t>> held;
  std::vector<const std::vector<std::uint8_t>*> payloads;
  live.reserve(records.size());
  held.reserve(records.size());
  payloads.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    try {
      if (options_.fault_injector != nullptr) {
        options_.fault_injector->OnDecode(records[i]);
      }
      const std::vector<std::uint8_t>* view =
          reader_->PayloadView(records[i]);
      if (view == nullptr) {
        held.push_back(reader_->ReadPayload(records[i], ws));
        view = &held.back();
      }
      payloads.push_back(view);
      live.push_back(i);
    } catch (...) {
      out[i].error = std::current_exception();
    }
  }

  std::vector<Tensor> recons;
  std::exception_ptr batch_error;
  if (!live.empty()) {
    try {
      recons = codec->DecompressWindows(payloads, ws);
      GLSC_CHECK(recons.size() == live.size());
    } catch (...) {
      batch_error = std::current_exception();
    }
  }
  const Shape& shape = reader_->dataset_shape();
  for (std::size_t k = 0; k < live.size(); ++k) {
    Decoded& d = out[live[k]];
    try {
      if (batch_error != nullptr && live.size() == 1) {
        std::rethrow_exception(batch_error);
      }
      // A failed batch of several records cannot say which payload sank it:
      // re-decode each from the payload already held (the injector charges
      // were spent above, so this pass sees the codec's real behavior), so
      // only the bad records fail.
      d.recon = batch_error == nullptr
                    ? std::move(recons[k])
                    : codec->DecompressWindow(*payloads[k], ws);
      GLSC_CHECK_MSG(d.recon.rank() == 3 && d.recon.dim(1) == shape[2] &&
                         d.recon.dim(2) == shape[3],
                     "decoded window geometry mismatch");
      GLSC_CHECK(reader_->records()[records[live[k]]].valid_frames <=
                 d.recon.dim(0));
    } catch (...) {
      d.recon = Tensor();
      d.error = std::current_exception();
    }
  }
  for (const Decoded& d : out) {
    (d.error != nullptr ? failures_ : decoded_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

void DecodeScheduler::DropFlight(std::size_t record,
                                 const std::shared_ptr<Flight>& flight) {
  // The pointer comparison guards against erasing a successor flight: once a
  // record is published and then evicted, a new query may have opened a
  // fresh flight for it under the same key.
  const auto fit = inflight_.find(record);
  if (fit != inflight_.end() && fit->second == flight) inflight_.erase(fit);
}

std::vector<Tensor> DecodeScheduler::Fetch(
    const std::vector<std::size_t>& indices, const RequestContext* ctx) {
  if (ctx != nullptr) ctx->Check();
  std::vector<Tensor> out(indices.size());
  std::vector<std::size_t> owned;  // positions in `indices` this call decodes
  std::vector<std::shared_ptr<Flight>> owned_flights;  // parallel to `owned`
  // Positions whose record a concurrent query is already decoding.
  std::vector<std::pair<std::size_t, std::shared_ptr<Flight>>> waits;
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const auto it = cache_.find(indices[i]);
      if (it != cache_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.first);
        out[i] = it->second.second;
        hits_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Single-flight: the first query to miss a record owns its decode;
      // later queries (and duplicate indices within this one) wait on the
      // owner's Flight instead of running the decoder a second time.
      const auto fit = inflight_.find(indices[i]);
      if (fit != inflight_.end()) {
        waits.emplace_back(i, fit->second);
        continue;
      }
      auto flight = std::make_shared<Flight>();
      inflight_.emplace(indices[i], flight);
      owned.push_back(i);
      owned_flights.push_back(std::move(flight));
    }
  }

  if (!owned.empty()) {
    // Per owned position: its record's decode error, if any. Written under
    // mu_ by `publish`, read after the fan-out drains.
    std::vector<std::exception_ptr> errors(owned.size());

    // Publishes the outcomes of owned positions [begin, begin +
    // decoded->size()) in one critical section, inside the decode loop, so waiters unblock as soon
    // as the chunk holding their record finishes. A success lands in `out`,
    // the cache and its Flight; a failure puts the typed error on the Flight
    // so every waiter rethrows it. Either way the in-flight entry is
    // dropped, so a later query retries a failed record fresh.
    const auto publish = [&](std::size_t begin, std::vector<Decoded>* decoded) {
      MutexLock lock(mu_);
      for (std::size_t k = 0; k < decoded->size(); ++k) {
        const std::size_t oj = begin + k;
        const std::size_t position = owned[oj];
        Flight& flight = *owned_flights[oj];
        Decoded& d = (*decoded)[k];
        if (d.error != nullptr) {
          errors[oj] = d.error;
          flight.aborted = true;
          flight.error = d.error;
        } else {
          out[position] = std::move(d.recon);
          flight.done = true;
          flight.result = out[position];
          if (options_.cache_windows > 0) {
            Insert(indices[position], out[position]);
          }
        }
        DropFlight(indices[position], owned_flights[oj]);
      }
      cv_.NotifyAll();
    };

    // Aborts every owned flight not yet published, with no error: the
    // records are fine, this call stopped before decoding them, so waiters
    // decode for themselves. Returns whether any flight was still open.
    const auto abort_unpublished = [&]() {
      MutexLock lock(mu_);
      bool any = false;
      for (std::size_t j = 0; j < owned.size(); ++j) {
        Flight& flight = *owned_flights[j];
        if (flight.done || flight.aborted) continue;
        any = true;
        flight.aborted = true;
        DropFlight(indices[owned[j]], owned_flights[j]);
      }
      if (any) cv_.NotifyAll();
      return any;
    };

    // Contiguous chunks of at most max_batch owned records, one
    // DecodeRecords call each; worker k decodes chunks k, k+W, ... so within
    // one query each model instance is touched by exactly one thread.
    const std::size_t max_batch = static_cast<std::size_t>(
        std::max<std::int64_t>(1, options_.max_batch));
    const std::size_t chunks = (owned.size() + max_batch - 1) / max_batch;
    const auto decode_chunk = [&](std::size_t c, std::size_t worker) {
      // Cooperative deadline/cancel check between chunks: a skipped chunk
      // stays unpublished and is aborted after the fan-out.
      if (ShouldAbort(ctx)) return;
      const std::size_t begin = c * max_batch;
      std::vector<std::size_t> records;
      for (std::size_t j = begin; j < std::min(owned.size(), begin + max_batch);
           ++j) {
        records.push_back(indices[owned[j]]);
      }
      std::vector<Decoded> decoded = DecodeRecords(records, worker);
      publish(begin, &decoded);
    };

    const std::size_t fan_out = std::min(workers_.size(), chunks);
    try {
      if (fan_out <= 1) {
        for (std::size_t c = 0; c < chunks; ++c) decode_chunk(c, 0);
      } else {
        // Runs inline when already on a pool worker (ThreadPool::ParallelFor
        // detects re-entry), so serving layers stacked above may themselves
        // fan out. ParallelFor drains every helper before returning or
        // throwing, so `out`/`errors` never outlive a running body.
        GlobalThreadPool().ParallelFor(fan_out, [&](std::size_t k) {
          for (std::size_t c = k; c < chunks; c += fan_out) {
            decode_chunk(c, k);
          }
        });
      }
    } catch (...) {
      // Backstop for failures outside the per-record capture (bad_alloc in
      // the fan-out plumbing): waiters on other threads must not block
      // forever.
      abort_unpublished();
      throw;
    }
    // Chunks skipped by the deadline/cancel check: this REQUEST ran out of
    // time, so it fails typed.
    if (abort_unpublished() && ctx != nullptr) ctx->Check();

    // This query needs every record it owns: the first failure fails the
    // call (typed). Other queries running concurrently over healthy records
    // were published normally above and never see this throw.
    for (const std::exception_ptr& error : errors) {
      if (error != nullptr) std::rethrow_exception(error);
    }
  }

  // Collect results concurrent queries decoded for us. Every owned record is
  // already published (or this call threw), so waiting here cannot deadlock:
  // the flights below belong to OTHER in-progress Fetch calls, which publish
  // or abort without needing anything from this one.
  for (const auto& wait : waits) {
    const std::size_t position = wait.first;
    const std::shared_ptr<Flight>& flight = wait.second;
    {
      MutexLock lock(mu_);
      cv_.Wait(mu_, [&flight]() { return flight->done || flight->aborted; });
      if (flight->done) {
        // Served without running the decoder — counts as a cache hit.
        out[position] = flight->result;
        hits_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // The owner's decode of this record failed; the record would fail
      // for us identically (decode is deterministic), so propagate the
      // owner's typed error. Retry policy lives in the shard manager.
      if (flight->error != nullptr) std::rethrow_exception(flight->error);
    }
    // The owner stopped before decoding (deadline/cancel/backstop); decode
    // the record ourselves through the same path — unless this request is
    // itself out of time. mu_ is not held here: DecodeRecords takes a worker
    // lock, and worker_mu_ ranks before mu_.
    if (ctx != nullptr) ctx->Check();
    const std::size_t record = indices[position];
    Decoded decoded = std::move(DecodeRecords({record}, 0).front());
    if (decoded.error != nullptr) std::rethrow_exception(decoded.error);
    MutexLock lock(mu_);
    out[position] = std::move(decoded.recon);
    if (options_.cache_windows > 0) Insert(record, out[position]);
  }
  return out;
}

void DecodeScheduler::Insert(std::size_t record, const Tensor& decoded) {
  const auto it = cache_.find(record);
  if (it != cache_.end()) {  // another query raced us to the same record
    lru_.splice(lru_.begin(), lru_, it->second.first);
    return;
  }
  lru_.push_front(record);
  cache_.emplace(record, std::make_pair(lru_.begin(), decoded));
  while (cache_.size() > options_.cache_windows) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

void DecodeScheduler::Denormalize(const core::RecordRef& ref,
                                  const Tensor& decoded, std::int64_t t_begin,
                                  std::int64_t t_end, float* out) const {
  const Shape& shape = reader_->dataset_shape();
  const std::int64_t hw = shape[2] * shape[3];
  const std::int64_t hi = std::min(ref.t0 + ref.valid_frames, t_end);
  for (std::int64_t t = std::max(ref.t0, t_begin); t < hi; ++t) {
    const data::FrameNorm& fn = reader_->norm(ref.variable, t);
    const float* src = decoded.data() + (t - ref.t0) * hw;
    float* dst = out + (t - t_begin) * hw;
    for (std::int64_t k = 0; k < hw; ++k) dst[k] = src[k] * fn.range + fn.mean;
  }
}

Tensor DecodeScheduler::Get(std::int64_t variable, std::int64_t t_begin,
                            std::int64_t t_end, const RequestContext* ctx) {
  const Shape& shape = reader_->dataset_shape();
  const std::vector<std::size_t> indices =
      reader_->RecordsFor(variable, t_begin, t_end);  // validates the query
  const std::vector<Tensor> decoded = Fetch(indices, ctx);
  Tensor out({t_end - t_begin, shape[2], shape[3]});  // zero-filled
  for (std::size_t i = 0; i < indices.size(); ++i) {
    Denormalize(reader_->records()[indices[i]], decoded[i], t_begin, t_end,
                out.data());
  }
  return out;
}

Tensor DecodeScheduler::GetAll() {
  const Shape& shape = reader_->dataset_shape();
  const std::int64_t frames = shape[1];
  const std::int64_t hw = shape[2] * shape[3];
  Tensor out(shape);  // zero-filled
  // One group gives every worker one full chunk. Writing each group out
  // before fetching the next bounds peak memory at the output plus one
  // group of decoded windows.
  const std::size_t count = reader_->records().size();
  const std::size_t group =
      workers_.size() *
      static_cast<std::size_t>(std::max<std::int64_t>(1, options_.max_batch));
  std::vector<std::size_t> indices;
  for (std::size_t begin = 0; begin < count; begin += group) {
    indices.clear();
    for (std::size_t i = begin; i < std::min(count, begin + group); ++i) {
      indices.push_back(i);
    }
    const std::vector<Tensor> decoded = Fetch(indices, nullptr);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const core::RecordRef& ref = reader_->records()[indices[k]];
      Denormalize(ref, decoded[k], 0, frames,
                  out.data() + ref.variable * frames * hw);
    }
  }
  return out;
}

}  // namespace glsc::serve
