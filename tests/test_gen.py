import hashlib
import json
import random

from epmu.gen import random_system
from epmu.system import system_to_dict


class TestRandomSystem:
    """The seeded systems every suite draws from: one sha256 over the
    systems of a grid of seeds, sizes and observation shapes, and the next
    draw of the generator after each, computed while the reachability pass
    still closed over state 1 and then over each wired-in state in a
    second loop."""

    DIGEST = "ecec988337849bd70939a4b7a8d28aecd19a6d2aaa3bf3cce4c00991a29335bf"

    def test_digest(self):
        h = hashlib.sha256()
        for seed in range(150):
            for max_states in (1, 3, 5, 8):
                for chain_obs in (False, True):
                    rng = random.Random(seed)
                    m = random_system(rng, max_states=max_states, chain_obs=chain_obs)
                    h.update(json.dumps(system_to_dict(m), sort_keys=True).encode())
                    h.update(str(rng.getrandbits(64)).encode())
        assert h.hexdigest() == self.DIGEST
