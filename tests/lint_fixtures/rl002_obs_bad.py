# repro-lint: scope=RL002
"""RL002 positive fixture: unguarded observability-bundle call sites."""


class Node:
    def __init__(self, obs):
        self.obs = obs

    def handle(self, key):
        self.obs.record("execute", "node", 0.0, key=key, operation="out")

    def push(self, client):
        obs = client.obs
        obs.record("notify", "node", 0.0, client=str(client))
