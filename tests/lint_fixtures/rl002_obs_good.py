# repro-lint: scope=RL002
"""RL002 negative fixture: observability-bundle calls behind .enabled guards."""


class Node:
    def __init__(self, obs, waiter):
        self.obs = obs
        self.waiter = waiter

    def handle(self, key):
        if self.obs.enabled:
            self.obs.record("execute", "node", 0.0, key=key, operation="out")

    def push(self, client):
        obs = client.obs
        if obs.enabled:
            obs.record("notify", "node", 0.0, client=str(client))

    def vote(self, sender):
        # Not an observability bundle: a domain object's own record().
        return self.waiter.record(sender)
