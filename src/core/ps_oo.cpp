#include "core/ps_oo.h"


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

void PsOoServer::OnObjectReadReq(ObjectId oid, TxnId txn, ClientId client,
                                 sim::Promise<PageShip> reply) {
  ctx_.sim.Spawn(HandleRead(oid, txn, client, std::move(reply)));
}

void PsOoServer::OnObjectWriteReq(ObjectId oid, TxnId txn, ClientId client,
                                  sim::Promise<WriteGrant> reply) {
  ctx_.sim.Spawn(HandleWrite(oid, txn, client, std::move(reply)));
}

void PsOoServer::OnClientDroppedPage(PageId page, ClientId client) {
  const auto& layout = ctx_.db.layout();
  for (int s = 0; s < ctx_.params.objects_per_page; ++s) {
    object_copies_.Unregister(layout.ObjectAt(page, s), client);
  }
}

void PsOoServer::OnAbortPurge(TxnId txn, ClientId client,
                              const std::vector<PageId>& pages,
                              const std::vector<ObjectId>& objects) {
  (void)txn;
  for (PageId p : pages) OnClientDroppedPage(p, client);
  for (ObjectId o : objects) object_copies_.Unregister(o, client);
}

SlotMask PsOoServer::UnavailableMask(PageId page, TxnId txn) const {
  SlotMask mask = 0;
  const auto& layout = ctx_.db.layout();
  for (const auto& [oid, holder] : lm_.ObjectLocksOnPage(page)) {
    if (holder != txn) mask |= storage::SlotBit(layout.SlotOf(oid));
  }
  return mask;
}

sim::Task PsOoServer::HandleRead(ObjectId oid, TxnId txn, ClientId client,
                                 sim::Promise<PageShip> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  try {
    {
      trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
      co_await cpu_.System(ctx_.params.lock_inst);
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
      // Object-granularity registration for every available object shipped
      // — a real per-object cost of fine-grained replica management.
      const int est = ctx_.params.objects_per_page -
                      storage::PopCount(UnavailableMask(page, txn));
      {
        trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
        co_await cpu_.System(ctx_.params.register_copy_inst * est);
      }
      // Re-validate after the charge so registration + ship are atomic with
      // the conflict checks.
      holder = lm_.ObjectXHolder(oid);
      if (holder != kNoTxn && holder != txn) continue;
      break;
    }
    const SlotMask unavailable = UnavailableMask(page, txn);
    const auto& layout = ctx_.db.layout();
    for (int s = 0; s < ctx_.params.objects_per_page; ++s) {
      if ((unavailable & storage::SlotBit(s)) == 0) {
        object_copies_.Register(layout.ObjectAt(page, s), client);
      }
    }
    PageShip ship = MakeShip(page, unavailable);
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

sim::Task PsOoServer::HandleWrite(ObjectId oid, TxnId txn, ClientId client,
                                  sim::Promise<WriteGrant> reply) {
  const PageId page = ctx_.db.layout().PageOf(oid);
  try {
    {
      trace::PhaseTimer cpu_time(ctx_.tracer, txn, trace::Phase::kServerCpu);
      co_await cpu_.System(ctx_.params.lock_inst);
    }
    co_await lm_.AcquireObjectX(oid, page, txn, client);

    auto holders = object_copies_.HoldersExcept(oid, client);
    if (!holders.empty()) {
      auto batch = NewBatch();
      batch->pending = static_cast<int>(holders.size());
      // Unregistration runs at reply delivery (see CallbackBatch::on_final),
      // and only for the registration epoch the callback was issued against.
      std::unordered_map<ClientId, std::uint64_t> epochs;
      for (const auto& h : holders) epochs[h.client] = h.epoch;
      batch->on_final = [this, oid, epochs](ClientId c, CallbackOutcome) {
        object_copies_.UnregisterIfEpoch(oid, c, epochs.at(c));
      };
      for (const auto& h : holders) {
        if (ctx_.tracer != nullptr) {
          ctx_.tracer->Emit(trace::EventKind::kCallbackIssue, node_, txn, page,
                            oid, -1, h.client);
        }
        SendToClient(h.client, MsgKind::kCallbackReq,
                     ctx_.transport.ControlBytes(),
                     [cl = this->client(h.client), oid, page, txn, batch]() {
                       cl->OnObjectCallback(oid, page, txn, batch);
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

sim::Task PsOoClient::FetchFor(ObjectId oid) {
  while (!CachedAvailable(oid)) {
    sim::Promise<PageShip> pr(ctx_.sim);
    auto fut = pr.GetFuture();
    {
      PsOoServer* srv = OoServerFor(PageOf(oid));
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

sim::Task PsOoClient::Read(ObjectId oid) {
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

sim::Task PsOoClient::Write(ObjectId oid) {
  co_await Read(oid);
  if (!locks_.HasObjectWrite(oid)) {
    sim::Promise<WriteGrant> pr(ctx_.sim);
    auto fut = pr.GetFuture();
    {
      PsOoServer* srv = OoServerFor(PageOf(oid));
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

void PsOoClient::OnObjectCallback(ObjectId oid, PageId page,
                                  TxnId /*requester*/,
                                  std::shared_ptr<CallbackBatch> batch) {
  storage::PageFrame* f = cache_.Peek(page);
  const int slot = SlotOf(oid);
  if (f == nullptr || !f->IsAvailable(slot)) {
    ReplyCallback(batch, {CallbackOutcome::kNotCached, kNoTxn});
    return;
  }
  if (txn_active_ && locks_.ReadsObject(oid)) {
    ReplyCallback(batch, {CallbackOutcome::kInUse, txn_});
    Defer([this, oid, page, slot, batch]() {
      CallbackOutcome out = CallbackOutcome::kNotCached;
      if (storage::PageFrame* g = cache_.Peek(page)) {
        g->MarkUnavailable(slot);
        ++ctx_.counters.callback_object_marks;
        out = CallbackOutcome::kRetained;
      }
      ReplyCallback(batch, {out, kNoTxn});
    });
    return;
  }
  // Mark only the object unavailable; the rest of the page stays usable.
  f->MarkUnavailable(slot);
  ++ctx_.counters.callback_object_marks;
  ReplyCallback(batch, {CallbackOutcome::kRetained, kNoTxn});
}

}  // namespace psoodb::core
