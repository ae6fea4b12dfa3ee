OPEN, MEMBER, MAC = "open", "member", "mac"


def Contract(principal, proof):
    return principal, proof


class Message:
    kind = "message"


class Ping(Message):
    kind = "ping"
    contract = Contract("replica_id", MAC)


class Pong(Message):
    kind = "pong"
    contract = Contract("replica_id", MEMBER)


class Peek(Message):
    kind = "peek"
    contract = Contract(None, OPEN)
