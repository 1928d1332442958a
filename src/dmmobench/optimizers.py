"""Bundled optimizers: a niching differential-evolution baseline and a
uniform random-search control.

The baseline exists to exercise the whole harness end to end, not to
compete: multiple subpopulations, crowding replacement for niching, and
a change response built from memory seeding plus partial
reinitialization.  Both optimizers draw only from their own random
stream and touch the problem only through its public surface.
"""

from collections import deque

import numpy as np

from .config import OptimizerConfig
from .core import DOMAIN_HIGH, DOMAIN_LOW, RunFrozenError


class ChangeDetector:
    """Notices environment transitions from inside an optimizer.

    Prefers the exposed environment index; when configuration hides it,
    falls back to watching the budget counter jump back up.
    """

    def __init__(self, instance):
        self.instance = instance
        self.use_index = instance.settings.expose_environment_index
        self.last_env = instance.current_environment() if self.use_index else 0
        self.last_remaining = instance.remaining_budget()

    def changed(self):
        if self.use_index:
            now = self.instance.current_environment()
            moved = now != self.last_env
            self.last_env = now
            return moved
        now = self.instance.remaining_budget()
        moved = now > self.last_remaining
        self.last_remaining = now
        return moved


class CrowdingDE:
    """DE/rand/1/bin with crowding replacement across subpopulations.

    Each generation reports the whole population, so whichever report
    is in force when an environment seals is at most one generation
    old.  On a detected change: the stale best of every subpopulation
    enters a bounded memory, the worst fraction of each subpopulation
    is redrawn uniformly, one memory entry reseeds each subpopulation,
    and everything is re-evaluated (on budget) under the new landscape.
    """

    name = "baseline"

    def __init__(self, config=None):
        self.config = config if config is not None else OptimizerConfig()

    def optimize(self, instance, rng):
        cfg = self.config
        subs, size = cfg.subpopulations, cfg.subpopulation_size
        dim = instance.spec.dimension
        pop = rng.uniform_vector(DOMAIN_LOW, DOMAIN_HIGH, (subs, size, dim))
        try:
            fitness = instance.evaluate_many(
                pop.reshape(-1, dim)).reshape(subs, size)
        except RunFrozenError:
            return instance.snapshots
        detector = ChangeDetector(instance)
        memory = deque(maxlen=cfg.memory_size)

        while not instance.frozen:
            instance.report_population(pop.reshape(-1, dim))
            trials = self._make_trials(pop, rng)
            # a batch can outlive the run's final budget mid-generation
            try:
                trial_fitness = instance.evaluate_many(
                    trials.reshape(-1, dim)).reshape(subs, size)
                self._crowding_replace(pop, fitness, trials, trial_fitness)
                if instance.frozen:
                    break
                if detector.changed():
                    self._respond_to_change(instance, pop, fitness, memory,
                                            rng)
            except RunFrozenError:
                break
        return instance.snapshots

    def _make_trials(self, pop, rng):
        subs, size, dim = pop.shape
        cfg = self.config
        # Random-offset partner selection: members 1, 2 and 3 places
        # after the target in one permutation per subpopulation; three
        # distinct members, possibly including the target itself.
        perms = rng.index_permutations(subs, size)
        offsets = (np.arange(size) + np.arange(1, 4)[:, None]) % size
        rows = np.arange(subs)[:, None]
        x1, x2, x3 = pop[rows[:, None], perms[:, offsets]].swapaxes(0, 1)
        mutants = x1 + cfg.scale_factor * (x2 - x3)
        cross = rng.uniform_vector(0.0, 1.0, (subs, size, dim))
        forced = np.floor(rng.uniform_vector(0.0, dim, (subs, size)))
        forced = np.minimum(forced.astype(int), dim - 1)
        mask = cross < cfg.crossover_rate
        mask[rows, np.arange(size), forced] = True
        trials = np.where(mask, mutants, pop)
        return np.clip(trials, DOMAIN_LOW, DOMAIN_HIGH)

    @staticmethod
    def _crowding_replace(pop, fitness, trials, trial_fitness):
        # Each trial competes with the member nearest to it at generation
        # start.  Applied one trial at a time in index order, a trial
        # replaces its target when it is at least as fit as the target
        # is by then, so a target ends at the last occurrence of the
        # maximum fitness among the trials aimed at it, provided that
        # maximum is >= the target's fitness before the generation.
        # This needs trial fitness free of NaN, where the running
        # comparison and the sort below would disagree; it holds because
        # trials are clipped into the domain, where every landscape is
        # finite.
        diff = trials[:, :, None, :] - pop[:, None, :, :]
        nearest = (diff * diff).sum(-1).argmin(2)
        subs, size = nearest.shape
        target = (np.arange(subs)[:, None] * size + nearest).ravel()
        # lexsort is stable, so equal fitness within a target keeps
        # trial order and the group's last entry is the winner.
        order = np.lexsort((trial_fitness.ravel(), target))
        last = np.append(target[order[1:]] != target[order[:-1]], True)
        s, i = np.divmod(order[last], size)
        m = nearest[s, i]
        wins = trial_fitness[s, i] >= fitness[s, m]
        s, i, m = s[wins], i[wins], m[wins]
        pop[s, m] = trials[s, i]
        fitness[s, m] = trial_fitness[s, i]

    def _respond_to_change(self, instance, pop, fitness, memory, rng):
        cfg = self.config
        subs, size, dim = pop.shape
        best = fitness.argmax(1)
        for s in range(subs):
            memory.append(pop[s, best[s]].copy())
        redraw = int(round(cfg.reinit_fraction * size))
        order = np.argsort(fitness, axis=1, kind="stable")
        if redraw:
            for s in range(subs):
                worst = order[s, :redraw]
                pop[s, worst] = rng.uniform_vector(
                    DOMAIN_LOW, DOMAIN_HIGH, (redraw, dim))
        seeds = list(memory)[::-1][:subs]
        for s, point in enumerate(seeds):
            pop[s, order[s, 0]] = point
        fitness[:] = instance.evaluate_many(
            pop.reshape(-1, dim)).reshape(subs, size)


class RandomSearch:
    """Uniform sampling over the box with the identical budget.

    Keeps the best points seen in the current environment and reports
    them before each new batch; the batch that exhausts an environment
    arrives too late to be scored there, exactly as for any optimizer.
    """

    name = "random"

    #: Evaluations per batch; small enough that several reports happen
    #: even under sharply reduced budgets.
    batch_size = 1000

    def __init__(self, config=None):
        config = config if config is not None else OptimizerConfig()
        self.pool_size = config.subpopulations * config.subpopulation_size

    def optimize(self, instance, rng):
        dim = instance.spec.dimension
        detector = ChangeDetector(instance)
        points = np.empty((0, dim))
        values = np.empty(0)
        while not instance.frozen:
            remaining = instance.remaining_budget()
            chunk = min(self.batch_size, remaining)
            if chunk == remaining and remaining > 1 and not len(points):
                # hold back part of the environment's budget so a report
                # is in force before the environment seals
                chunk = remaining // 2
            batch = rng.uniform_vector(DOMAIN_LOW, DOMAIN_HIGH, (chunk, dim))
            batch_values = instance.evaluate_many(batch)
            if instance.frozen or detector.changed():
                points = np.empty((0, dim))
                values = np.empty(0)
                continue
            points = np.concatenate([points, batch])
            values = np.concatenate([values, batch_values])
            if len(points) > 4 * self.pool_size:
                keep = np.argsort(-values, kind="stable")[:self.pool_size]
                points = points[keep]
                values = values[keep]
            keep = np.argsort(-values, kind="stable")[:self.pool_size]
            instance.report_population(points[keep])
        return instance.snapshots


OPTIMIZERS = {
    CrowdingDE.name: CrowdingDE,
    RandomSearch.name: RandomSearch,
}


def make_optimizer(name, config=None):
    """Look up a bundled optimizer by its registry name."""
    try:
        cls = OPTIMIZERS[name]
    except KeyError:
        known = ", ".join(sorted(OPTIMIZERS))
        raise ValueError(f"unknown optimizer {name!r}; known: {known}") from None
    return cls(config)
