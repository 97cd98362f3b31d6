#include "virtual_interface.hpp"

#include "util/logging.hpp"
#include "via/observer.hpp"
#include "via/via_nic.hpp"

namespace press::via {

VirtualInterface::VirtualInterface(ViaNic &nic, net::NodeId node, int id,
                                   Reliability reliability,
                                   CompletionQueue *send_cq,
                                   CompletionQueue *recv_cq)
    : _nic(nic),
      _node(node),
      _id(id),
      _reliability(reliability),
      _sendCq(send_cq),
      _recvCq(recv_cq)
{
}

bool
VirtualInterface::postSend(DescriptorPtr desc)
{
    PRESS_ASSERT(desc, "null send descriptor");
    if (_sendOutstanding >= MaxQueueDepth)
        return false; // rejected posts never reach the NIC (or observers)
    // With an observer attached, lifecycle enforcement is delegated to it
    // (a checker in abort mode panics with a structured report; one in
    // record mode notes the violation and lets the simulation proceed).
    if (ViaObserver *obs = _nic.observer())
        obs->onPostSend(*this, *desc);
    else
        PRESS_ASSERT(desc->status == Status::Pending,
                     "descriptor reposted before completion");
    if (!_peer || _broken) {
        completeSend(std::move(desc), Status::ErrorDisconnected);
        return true;
    }
    ++_sendOutstanding;
    _nic.processSend(*this, std::move(desc));
    return true;
}

bool
VirtualInterface::postRecv(DescriptorPtr desc)
{
    PRESS_ASSERT(desc, "null recv descriptor");
    if (_recvPosted >= MaxQueueDepth)
        return false;
    if (ViaObserver *obs = _nic.observer())
        obs->onPostRecv(*this, *desc);
    else
        PRESS_ASSERT(desc->status == Status::Pending,
                     "descriptor reposted before completion");
    _recvQueue.push_back(RecvPost{std::move(desc), 0, 0, 1});
    ++_recvPosted;
    return true;
}

bool
VirtualInterface::postRecvs(Address local, std::uint64_t capacity,
                            std::size_t n)
{
    PRESS_ASSERT(n > 0, "empty counted receive post");
    if (n > MaxQueueDepth - _recvPosted)
        return false;
    // No descriptor exists yet, so there is no lifecycle to check.
    if (ViaObserver *obs = _nic.observer())
        obs->onPostRecvs(*this, local, capacity, n);
    _recvPosted += n;
    if (!_recvQueue.empty()) {
        RecvPost &last = _recvQueue.back();
        if (!last.desc && last.local == local && last.capacity == capacity) {
            last.count += n;
            return true;
        }
    }
    _recvQueue.push_back(RecvPost{nullptr, local, capacity, n});
    return true;
}

DescriptorPtr
VirtualInterface::pollSend()
{
    PRESS_ASSERT(!_sendCq,
                 "pollSend on a VI whose send queue feeds a CQ");
    if (_sendDone.empty())
        return nullptr;
    DescriptorPtr d = std::move(_sendDone.front());
    _sendDone.pop_front();
    return d;
}

DescriptorPtr
VirtualInterface::pollRecv()
{
    PRESS_ASSERT(!_recvCq,
                 "pollRecv on a VI whose recv queue feeds a CQ");
    if (_recvDone.empty())
        return nullptr;
    DescriptorPtr d = std::move(_recvDone.front());
    _recvDone.pop_front();
    return d;
}

void
VirtualInterface::completeSend(DescriptorPtr desc, Status status)
{
    desc->status = status;
    if (status == Status::Complete)
        desc->bytesDone = desc->length;
    if (_sendOutstanding > 0)
        --_sendOutstanding;
    if (ViaObserver *obs = _nic.observer())
        obs->onCompletion(*this, *desc, false);
    if (_sendCq)
        _sendCq->push(Completion{std::move(desc), this, false});
    else
        _sendDone.push_back(std::move(desc));
}

void
VirtualInterface::completeRecv(DescriptorPtr desc)
{
    if (ViaObserver *obs = _nic.observer())
        obs->onCompletion(*this, *desc, true);
    if (_recvCq)
        _recvCq->push(Completion{std::move(desc), this, true});
    else
        _recvDone.push_back(std::move(desc));
}

void
VirtualInterface::flushRecvQueue()
{
    // Every buffer of a counted entry completes on its own.
    while (DescriptorPtr d = takeRecv()) {
        d->status = Status::ErrorFlushed;
        completeRecv(std::move(d));
    }
}

DescriptorPtr
VirtualInterface::takeRecv()
{
    if (_recvQueue.empty())
        return nullptr;
    --_recvPosted;
    RecvPost &next = _recvQueue.front();
    DescriptorPtr d = next.desc ? std::move(next.desc)
                                : makeRecv(next.local, next.capacity);
    if (--next.count == 0)
        _recvQueue.pop_front();
    return d;
}

} // namespace press::via
