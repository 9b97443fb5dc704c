#include "core/ps.h"


#include "cc/abort.h"
#include "check/invariants.h"
#include "util/check.h"

namespace psoodb::core {

using storage::ClientId;
using storage::kNoTxn;
using storage::ObjectId;
using storage::PageId;
using storage::TxnId;

// --- Server ------------------------------------------------------------------

void PsServer::OnPageReadReq(PageId page, TxnId txn, ClientId client,
                             sim::Promise<PageShip> reply) {
  ctx_.sim.Spawn(HandleRead(page, txn, client, std::move(reply)));
}

void PsServer::OnPageWriteReq(PageId page, TxnId txn, ClientId client,
                              sim::Promise<WriteGrant> reply) {
  ctx_.sim.Spawn(HandleWrite(page, txn, client, std::move(reply)));
}

sim::Task PsServer::HandleRead(PageId page, TxnId txn, ClientId client,
                               sim::Promise<PageShip> reply) {
  try {
    {
      // Charge the request's CPU costs up front so the final
      // check-register-ship sequence below runs without suspension.
      trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
      co_await cpu_.System(ctx_.params.lock_inst +
                           ctx_.params.register_copy_inst);
    }
    for (;;) {
      // Block while any other transaction holds a page write lock.
      co_await lm_.WaitPageFree(page, txn);
      co_await EnsureBuffered(page, /*load=*/true, txn);
      TxnId holder = lm_.PageXHolder(page);  // disk read may have let one in
      if (holder == kNoTxn || holder == txn) break;
    }
    // Registration, version gathering, and send are a single atomic step so
    // later callbacks cannot overtake this ship on the wire.
    page_copies_.Register(page, client);
    PageShip ship = MakeShip(page, /*unavailable=*/0);
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

sim::Task PsServer::HandleWrite(PageId page, TxnId txn, ClientId client,
                                sim::Promise<WriteGrant> reply) {
  try {
    {
      trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
      co_await cpu_.System(ctx_.params.lock_inst);
    }
    co_await lm_.AcquirePageX(page, txn, client);

    auto holders = page_copies_.HoldersExcept(page, client);
    if (!holders.empty()) {
      auto batch = NewBatch();
      batch->pending = static_cast<int>(holders.size());
      // Unregistration runs at reply delivery (see CallbackBatch::on_final),
      // and only for the registration epoch the callback was issued against.
      std::unordered_map<ClientId, std::uint64_t> epochs;
      for (const auto& h : holders) epochs[h.client] = h.epoch;
      batch->on_final = [this, page, epochs](ClientId c, CallbackOutcome) {
        page_copies_.UnregisterIfEpoch(page, c, epochs.at(c));
      };
      for (const auto& h : holders) {
        if (ctx_.tracer != nullptr) {
          ctx_.tracer->Emit(trace::EventKind::kCallbackIssue, node_, txn, page,
                            -1, -1, h.client);
        }
        SendToClient(h.client, MsgKind::kCallbackReq,
                     ctx_.transport.ControlBytes(),
                     [cl = this->client(h.client), page, txn, batch]() {
                       cl->OnPageCallback(page, txn, batch);
                     });
      }
      co_await AwaitCallbacks(batch, txn);
      {
        trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
        co_await cpu_.System(ctx_.params.register_copy_inst *
                             static_cast<double>(batch->outcomes.size()));
      }
    }
    if (ctx_.invariants != nullptr) {
      ctx_.invariants->OnWriteGrant(*this, GrantLevel::kPage, page,
                                    /*oid=*/-1, txn, client);
    }
    SendToClient(client, MsgKind::kControlReply, ctx_.transport.ControlBytes(),
                 [reply = std::move(reply)]() mutable {
                   reply.Set(WriteGrant{GrantLevel::kPage, false});
                 });
  } catch (const cc::TxnAborted&) {
    SendToClient(client, MsgKind::kControlReply, ctx_.transport.ControlBytes(),
                 [reply = std::move(reply)]() mutable {
                   reply.Set(WriteGrant{GrantLevel::kPage, true});
                 });
  }
}

// --- Client ------------------------------------------------------------------

sim::Task PsClient::FetchPage(PageId page) {
  sim::Promise<PageShip> pr(ctx_.sim);
  auto fut = pr.GetFuture();
  {
    PsServer* srv = PsServerFor(page);
    TxnId txn = txn_;
    ClientId from = id_;
    SendToServer(srv, MsgKind::kReadReq, ctx_.transport.ControlBytes(),
                 [srv, page, txn, from, pr = std::move(pr)]() mutable {
                   srv->OnPageReadReq(page, txn, from, std::move(pr));
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

sim::Task PsClient::Read(ObjectId oid) {
  const PageId page = PageOf(oid);
  if (cache_.Peek(page) == nullptr) {
    ++ctx_.counters.cache_misses;
    // Loop: a concurrent callback can purge the page while the merge cost of
    // an arriving ship is being charged.
    while (cache_.Peek(page) == nullptr) co_await FetchPage(page);
  } else {
    ++ctx_.counters.cache_hits;
  }
  LocalRead(oid);
}

sim::Task PsClient::Write(ObjectId oid) {
  co_await Read(oid);  // a write access reads the object first
  const PageId page = PageOf(oid);
  if (!locks_.HasPageWrite(page)) {
    sim::Promise<WriteGrant> pr(ctx_.sim);
    auto fut = pr.GetFuture();
    {
      PsServer* srv = PsServerFor(page);
      TxnId txn = txn_;
      ClientId from = id_;
      SendToServer(srv, MsgKind::kWriteReq, ctx_.transport.ControlBytes(),
                   [srv, page, txn, from, pr = std::move(pr)]() mutable {
                     srv->OnPageWriteReq(page, txn, from, std::move(pr));
                   });
    }
    BeginRpc();
    WriteGrant grant = co_await std::move(fut);
    EndRpc();
    if (grant.aborted) throw cc::TxnAborted(txn_, cc::AbortReason::kVictim);
    locks_.GrantPageWrite(page);
  }
  // The page stays cached (our read set makes callbacks defer), but guard
  // against pathological cache pressure.
  if (cache_.Peek(page) == nullptr) co_await FetchPage(page);
  MarkLocalWrite(oid);
}

void PsClient::OnPageCallback(PageId page, TxnId /*requester*/,
                              std::shared_ptr<CallbackBatch> batch) {
  storage::PageFrame* f = cache_.Peek(page);
  if (f == nullptr) {
    ReplyCallback(batch, {CallbackOutcome::kNotCached, kNoTxn});
    return;
  }
  if (txn_active_ && locks_.UsesPage(page)) {
    // Local lock conflict: respond "in use" and finish when the transaction
    // ends (Section 3.2.1).
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
  PSOODB_CHECK(!f->IsDirty(), "dirty page %d without active transaction",
               page);
  cache_.Remove(page);
  ++ctx_.counters.callback_page_purges;
  ReplyCallback(batch, {CallbackOutcome::kPurged, kNoTxn});
}

}  // namespace psoodb::core
