#include "traced.h"

#include <memory>
#include <string>
#include <utility>

#include "core/ask_types.h"
#include "core/pipeline.h"

namespace cqads::e2e {

namespace {

using serve::net::FrameDecoder;
using serve::net::Request;
using serve::net::Response;

/// Frames `payload` and reassembles it the way the receiving side does.
std::string FrameRoundTrip(const std::string& payload) {
  std::string frame;
  serve::net::AppendFrame(payload, &frame);
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  std::string out;
  decoder.Pop(&out);
  return out;
}

db::ExecStats Minus(const db::ExecStats& after, const db::ExecStats& before) {
  db::ExecStats d;
  d.index_lookups = after.index_lookups - before.index_lookups;
  d.rows_verified = after.rows_verified - before.rows_verified;
  d.full_scans = after.full_scans - before.full_scans;
  d.rows_visited = after.rows_visited - before.rows_visited;
  d.blocks_visited = after.blocks_visited - before.blocks_visited;
  d.rank_blocks_visited = after.rank_blocks_visited - before.rank_blocks_visited;
  d.rank_blocks_skipped = after.rank_blocks_skipped - before.rank_blocks_skipped;
  d.rank_rows_pruned = after.rank_rows_pruned - before.rank_rows_pruned;
  d.rank_threshold_updates =
      after.rank_threshold_updates - before.rank_threshold_updates;
  return d;
}

/// ConcurrentServer::AskImpl for one undeadlined request, stage by stage.
Result<core::AskResult> AnswerTraced(const core::CqadsEngine& engine,
                                     serve::PreparedQueryCache* cache,
                                     SpanRecorder* spans, std::uint64_t id,
                                     const Request& request,
                                     TracedOutcome* out) {
  ScopedSpan ask_span(spans, "serve.ask", id);
  core::EngineSnapshot::Ptr snap = engine.snapshot();
  std::string domain =
      request.method == "ask_in_domain" ? request.domain : std::string();
  if (domain.empty()) {
    ScopedSpan span(spans, "classify", id);
    auto classified = snap->ClassifyDomain(request.question);
    if (!classified.ok()) return classified.status();
    domain = std::move(classified).value();
  }

  core::QueryContext ctx(request.question, domain);
  std::string normalized;
  {
    ScopedSpan span(spans, "cache.get", id);
    normalized = serve::PreparedQueryCache::NormalizeQuestion(request.question);
    ctx.cached_parsed = cache->Get(domain, normalized, snap->version());
  }
  out->cache_hit = ctx.parsed_from_cache();

  for (const auto& stage : core::QueryPipeline::Full().stages()) {
    const db::ExecStats before = ctx.result.stats;
    Status st;
    {
      ScopedSpan span(spans, stage->name(), id);
      st = stage->Run(*snap, &ctx);
    }
    const std::string name = stage->name();
    if (name == "execute") out->execute = Minus(ctx.result.stats, before);
    if (name == "rank") out->rank = Minus(ctx.result.stats, before);
    if (!st.ok()) return st;
    if (ctx.done) break;
  }

  if (!ctx.parsed_from_cache()) {
    ScopedSpan span(spans, "cache.put", id);
    cache->Put(domain, normalized, snap->version(),
               std::make_shared<const core::ParsedQuestion>(
                   std::move(ctx.parsed)));
  }
  return std::move(ctx.result);
}

}  // namespace

TracedOutcome TracedAsk(const core::CqadsEngine& engine,
                        serve::PreparedQueryCache* cache, SpanRecorder* spans,
                        std::uint64_t id, const PoolQuestion& question) {
  TracedOutcome out;
  ScopedSpan root(spans, "request", id);

  Request request;
  request.id = id;
  request.method = question.domain.empty() ? "ask" : "ask_in_domain";
  request.domain = question.domain;
  request.question = question.text;

  std::string payload;
  {
    ScopedSpan span(spans, "client.encode", id);
    payload = serve::net::EncodeRequest(request);
  }
  {
    ScopedSpan span(spans, "net.frame", id);
    payload = FrameRoundTrip(payload);
  }
  Result<Request> decoded = Status::Internal("not decoded");
  {
    ScopedSpan span(spans, "net.decode", id);
    decoded = serve::net::DecodeRequest(payload);
  }

  Response response;
  response.id = id;
  if (!decoded.ok()) {
    response.status = serve::net::WireStatusName(decoded.status().code());
    response.error = decoded.status().message();
  } else {
    Result<core::AskResult> result =
        AnswerTraced(engine, cache, spans, id, decoded.value(), &out);
    if (result.ok()) {
      ScopedSpan span(spans, "render.canonical", id);
      response.degraded = result.value().degraded;
      response.domain = result.value().domain;
      response.canonical = core::CanonicalAskResultString(result.value());
    } else {
      response.status = serve::net::WireStatusName(result.status().code());
      response.error = result.status().message();
    }
  }
  out.canonical_bytes = response.canonical.size();

  std::string reply;
  {
    ScopedSpan span(spans, "net.encode", id);
    reply = serve::net::EncodeResponse(response);
  }
  out.response_frame_bytes = reply.size() + 4;
  {
    ScopedSpan span(spans, "net.frame", id);
    reply = FrameRoundTrip(reply);
  }
  {
    ScopedSpan span(spans, "client.decode", id);
    auto back = serve::net::DecodeResponse(reply);
    if (back.ok()) {
      out.response = std::move(back).value();
    } else {
      out.response.id = id;
      out.response.status = serve::net::WireStatusName(back.status().code());
    }
  }
  return out;
}

}  // namespace cqads::e2e
