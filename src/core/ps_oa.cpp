#include "core/ps_oa.h"

#include <string>

#include "cc/abort.h"
#include "check/invariants.h"

namespace psoodb::core {

using storage::ClientId;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::SlotMask;
using storage::TxnId;

// --- Server ------------------------------------------------------------------

void PsOaServer::OnObjectReadReq(ObjectId oid, TxnId txn, ClientId client,
                                 sim::Promise<PageShip> reply) {
  ctx_.sim.Spawn(HandleRead(oid, txn, client, std::move(reply)));
}

void PsOaServer::OnObjectWriteReq(ObjectId oid, TxnId txn, ClientId client,
                                  sim::Promise<WriteGrant> reply) {
  ctx_.sim.Spawn(HandleWrite(oid, txn, client, std::move(reply)));
}

SlotMask PsOaServer::UnavailableMask(PageId page, TxnId txn) const {
  SlotMask mask = 0;
  const auto& layout = ctx_.db.layout();
  for (const auto& [oid, holder] : lm_.ObjectLocksOnPage(page)) {
    if (holder != txn) mask |= storage::SlotBit(layout.SlotOf(oid));
  }
  return mask;
}

sim::Task PsOaServer::HandleRead(ObjectId oid, TxnId txn, ClientId client,
                                 sim::Promise<PageShip> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  try {
    {
      // Page-granularity replica tracking: one registration per ship. Costs
      // up front so the final check-register-ship runs without suspension.
      trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
      co_await cpu_.System(ctx_.params.lock_inst +
                           ctx_.params.register_copy_inst);
    }
    for (;;) {
      TxnId holder = lm_.ObjectXHolder(oid);
      if (holder != kNoTxn && holder != txn) {
        co_await lm_.WaitObjectFree(oid, page, txn);
        continue;
      }
      co_await EnsureBuffered(page, /*load=*/true, txn);
      holder = lm_.ObjectXHolder(oid);
      if (holder != kNoTxn && holder != txn) continue;
      break;
    }
    page_copies_.Register(page, client);
    PageShip ship = MakeShip(page, UnavailableMask(page, txn));
    if (ctx_.TracingPage(page)) {
      ctx_.Trace("SRV ship p=%d to c=%d txn=%llu mask=%llx", page, client,
                 (unsigned long long)txn, (unsigned long long)ship.unavailable);
    }
    SendToClient(client, MsgKind::kDataReply,
                 ctx_.transport.DataBytes(ctx_.params.page_size_bytes),
                 [reply = std::move(reply), ship = std::move(ship)]() mutable {
                   reply.Set(std::move(ship));
                 });
  } catch (const cc::TxnAborted&) {
    SendToClient(client, MsgKind::kControlReply,
                 ctx_.transport.ControlBytes(),
                 [reply = std::move(reply)]() mutable {
                   PageShip ship;
                   ship.aborted = true;
                   reply.Set(std::move(ship));
                 });
  }
}

sim::Task PsOaServer::HandleWrite(ObjectId oid, TxnId txn, ClientId client,
                                  sim::Promise<WriteGrant> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  try {
    {
      trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
      co_await cpu_.System(ctx_.params.lock_inst);
    }
    co_await lm_.AcquireObjectX(oid, page, txn, client);

    auto holders = page_copies_.HoldersExcept(page, client);
    if (ctx_.TracingPage(page)) {
      std::string hs;
      for (const auto& h : holders) hs += std::to_string(h.client) + ",";
      ctx_.Trace("SRV write oid=%lld slot=%d p=%d txn=%llu c=%d holders=[%s]",
                 (long long)oid, ctx_.db.layout().SlotOf(oid), page,
                 (unsigned long long)txn, client, hs.c_str());
    }
    if (!holders.empty()) {
      auto batch = NewBatch();
      batch->pending = static_cast<int>(holders.size());
      // Unregistration runs at reply delivery (see CallbackBatch::on_final),
      // and only for the registration epoch the callback was issued against:
      // the replying client may purge an old copy while a fresh ship to it
      // is already in flight.
      std::unordered_map<ClientId, std::uint64_t> epochs;
      for (const auto& h : holders) epochs[h.client] = h.epoch;
      batch->on_final = [this, page, epochs](ClientId c,
                                             CallbackOutcome outcome) {
        if (ctx_.TracingPage(page)) {
          ctx_.Trace("SRV cb-final p=%d from c=%d outcome=%d", page, c,
                     (int)outcome);
        }
        if (outcome == CallbackOutcome::kPurged ||
            outcome == CallbackOutcome::kNotCached) {
          page_copies_.UnregisterIfEpoch(page, c, epochs.at(c));
        }
      };
      for (const auto& h : holders) {
        if (ctx_.tracer != nullptr) {
          ctx_.tracer->Emit(trace::EventKind::kCallbackIssue, node_, txn, page,
                            oid, -1, h.client);
        }
        SendToClient(h.client, MsgKind::kCallbackReq,
                     ctx_.transport.ControlBytes(),
                     [cl = this->client(h.client), page, oid, txn, batch]() {
                       cl->OnAdaptiveCallback(page, oid, txn, batch);
                     });
      }
      co_await AwaitCallbacks(batch, txn);
      int unregistered = 0;
      for (const auto& [c, outcome] : batch->outcomes) {
        if (outcome != CallbackOutcome::kRetained) ++unregistered;
      }
      {
        trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
        co_await cpu_.System(ctx_.params.register_copy_inst * unregistered);
      }
    }
    if (ctx_.invariants != nullptr) {
      ctx_.invariants->OnWriteGrant(*this, GrantLevel::kObject, page, oid,
                                    txn, client);
    }
    SendToClient(client, MsgKind::kControlReply, ctx_.transport.ControlBytes(),
                 [reply = std::move(reply)]() mutable {
                   reply.Set(WriteGrant{GrantLevel::kObject, false});
                 });
  } catch (const cc::TxnAborted&) {
    SendToClient(client, MsgKind::kControlReply, ctx_.transport.ControlBytes(),
                 [reply = std::move(reply)]() mutable {
                   reply.Set(WriteGrant{GrantLevel::kObject, true});
                 });
  }
}

// --- Client ------------------------------------------------------------------

sim::Task PsOaClient::FetchFor(ObjectId oid) {
  while (!CachedAvailable(oid)) {
    sim::Promise<PageShip> pr(ctx_.sim);
    auto fut = pr.GetFuture();
    {
      PsOaServer* srv = OaServerFor(PageOf(oid));
      TxnId txn = txn_;
      ClientId from = id_;
      SendToServer(srv, MsgKind::kReadReq, ctx_.transport.ControlBytes(),
                   [srv, oid, txn, from, pr = std::move(pr)]() mutable {
                     srv->OnObjectReadReq(oid, txn, from, std::move(pr));
                   });
    }
    BeginRpc();
    PageShip ship = co_await std::move(fut);
    EndRpc();
    if (ship.aborted) throw cc::TxnAborted(txn_, cc::AbortReason::kVictim);
    int merged = ApplyShip(std::move(ship));
    if (merged > 0) {
      trace::PhaseTimer cpu_time(ctx_.tracer, txn_, trace::Phase::kClientCpu);
      co_await cpu_.System(ctx_.params.copy_merge_inst * merged);
    }
  }
}

sim::Task PsOaClient::Read(ObjectId oid) {
  if (CachedAvailable(oid)) {
    ++ctx_.counters.cache_hits;
    cache_.Get(PageOf(oid));  // touch LRU
  } else {
    if (cache_.Peek(PageOf(oid)) != nullptr) {
      ++ctx_.counters.unavailable_rerequests;
    }
    ++ctx_.counters.cache_misses;
    co_await FetchFor(oid);
  }
  LocalRead(oid);
}

sim::Task PsOaClient::Write(ObjectId oid) {
  co_await Read(oid);
  if (!locks_.HasObjectWrite(oid)) {
    sim::Promise<WriteGrant> pr(ctx_.sim);
    auto fut = pr.GetFuture();
    {
      PsOaServer* srv = OaServerFor(PageOf(oid));
      TxnId txn = txn_;
      ClientId from = id_;
      SendToServer(srv, MsgKind::kWriteReq, ctx_.transport.ControlBytes(),
                   [srv, oid, txn, from, pr = std::move(pr)]() mutable {
                     srv->OnObjectWriteReq(oid, txn, from, std::move(pr));
                   });
    }
    BeginRpc();
    WriteGrant grant = co_await std::move(fut);
    EndRpc();
    if (grant.aborted) throw cc::TxnAborted(txn_, cc::AbortReason::kVictim);
    locks_.GrantObjectWrite(oid);
  }
  if (!CachedAvailable(oid)) co_await FetchFor(oid);
  MarkLocalWrite(oid);
}

void PsOaClient::OnAdaptiveCallback(PageId page, ObjectId oid,
                                    TxnId /*requester*/,
                                    std::shared_ptr<CallbackBatch> batch) {
  storage::PageFrame* f = cache_.Peek(page);
  if (ctx_.TracingPage(page)) {
    ctx_.Trace("CLI %d cb p=%d oid=%lld slot=%d frame=%d inuse=%d reads=%d",
               id_, page, (long long)oid, SlotOf(oid), f != nullptr,
               txn_active_ && locks_.UsesPage(page), locks_.ReadsObject(oid));
  }
  if (f == nullptr) {
    ReplyCallback(batch, {CallbackOutcome::kNotCached, kNoTxn});
    return;
  }
  if (txn_active_ && locks_.UsesPage(page)) {
    if (locks_.ReadsObject(oid)) {
      // The requested object itself is in use: block until transaction end,
      // then drop the whole page (nothing is in use anymore).
      ReplyCallback(batch, {CallbackOutcome::kInUse, txn_});
      Defer([this, page, batch]() {
        CallbackOutcome out = CallbackOutcome::kNotCached;
        if (cache_.Peek(page) != nullptr) {
          cache_.Remove(page);
          ++ctx_.counters.callback_page_purges;
          out = CallbackOutcome::kPurged;
        }
        ReplyCallback(batch, {out, kNoTxn});
      });
      return;
    }
    // Page in use through other objects: de-escalated callback — keep the
    // page, mark only the requested object unavailable.
    f->MarkUnavailable(SlotOf(oid));
    ++ctx_.counters.callback_object_marks;
    ReplyCallback(batch, {CallbackOutcome::kRetained, kNoTxn});
    return;
  }
  // Nothing on the page is in use: purge it entirely (Section 3.3.2).
  cache_.Remove(page);
  ++ctx_.counters.callback_page_purges;
  ReplyCallback(batch, {CallbackOutcome::kPurged, kNoTxn});
}

}  // namespace psoodb::core
