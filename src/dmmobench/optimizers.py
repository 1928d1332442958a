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
from .core import DOMAIN_HIGH, DOMAIN_LOW, RunFrozenError, coordinate_sum


class CrowdingDE:
    """DE/rand/1/bin with crowding replacement across subpopulations.

    Each generation reports the whole population, so whichever report
    is in force when an environment seals is at most one generation
    old.  When `instance.t` shows a new environment after a generation,
    the stale best of every subpopulation enters a bounded memory, the
    worst fraction of each subpopulation is redrawn uniformly, one
    memory entry reseeds each subpopulation, and everything is
    re-evaluated (on budget) under the new landscape.
    """

    name = "baseline"

    def __init__(self, config=OptimizerConfig()):
        self.config = config
        subs = self.config.subpopulations
        size = self.config.subpopulation_size
        # Index constants of the generation step, fixed by the config.
        # Random-offset partner selection: members 1, 2 and 3 places
        # after the target in one permutation per subpopulation; three
        # distinct members, possibly including the target itself.
        # `_partner_slots[k, s, i]` is where, in the flattened
        # (subs, size) permutations, partner k of member (s, i) sits.
        self._rows = np.arange(subs)[:, None]
        self._columns = np.arange(size)
        offsets = (self._columns + np.arange(1, 4)[:, None]) % size
        self._row_starts = self._rows * size
        self._partner_slots = self._row_starts + offsets[:, None, :]

    def optimize(self, instance, rng):
        cfg = self.config
        subs, size = cfg.subpopulations, cfg.subpopulation_size
        dim = instance.spec.dimension
        pop = rng.uniform_vector(DOMAIN_LOW, DOMAIN_HIGH, (subs, size, dim))
        # a batch can outlive the run's final budget mid-generation
        try:
            fitness = instance.evaluate_many(
                pop.reshape(-1, dim)).reshape(subs, size)
            # the population is fresh: a change while scoring it needs no
            # response
            env = instance.t
            memory = deque(maxlen=cfg.memory_size)

            while not instance.frozen:
                instance.report_population(pop.reshape(-1, dim))
                trials = self._make_trials(pop, rng)
                trial_fitness = instance.evaluate_many(
                    trials.reshape(-1, dim)).reshape(subs, size)
                self._crowding_replace(pop, fitness, trials, trial_fitness)
                if not instance.frozen and instance.t != env:
                    env = instance.t
                    self._respond_to_change(instance, pop, fitness, memory,
                                            rng)
        except RunFrozenError:
            pass

    def _make_trials(self, pop, rng):
        subs, size, dim = pop.shape
        cfg = self.config
        perms = rng.index_permutations(subs, size)
        # row numbers of every partner in the flattened population
        partners = perms.take(self._partner_slots)
        partners += self._row_starts
        x1, x2, x3 = pop.reshape(-1, dim).take(partners, axis=0)
        # x1 + F * (x2 - x3), one operation at a time, in x2's buffer
        mutants = np.subtract(x2, x3, out=x2)
        mutants *= cfg.scale_factor
        mutants += x1
        cross = rng.uniform_vector(0.0, 1.0, (subs, size, dim))
        # truncation is floor on these non-negative draws
        forced = rng.uniform_vector(0.0, dim, (subs, size)).astype(np.intp)
        np.minimum(forced, dim - 1, out=forced)
        mask = cross < cfg.crossover_rate
        mask[self._rows, self._columns, forced] = True
        trials = np.where(mask, mutants, pop)
        # equal to np.clip on finite values, and the trials are finite
        np.maximum(trials, DOMAIN_LOW, out=trials)
        return np.minimum(trials, DOMAIN_HIGH, out=trials)

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
        # finite.  `pop` and `fitness` are C-contiguous, so their flat
        # views below write through.  The squared distances are laid out
        # (dim, subs, trial, member), so each of the dim additions runs
        # over every pair at once.
        trial_coords = np.ascontiguousarray(trials.transpose(2, 0, 1))
        member_coords = np.ascontiguousarray(pop.transpose(2, 0, 1))
        diff = trial_coords[:, :, :, None] - member_coords[:, :, None, :]
        nearest = coordinate_sum(np.multiply(diff, diff, out=diff)).argmin(2)
        subs, size = nearest.shape
        # flat member index of each trial's target
        nearest += np.arange(0, subs * size, size)[:, None]
        target = nearest.reshape(-1)
        # lexsort is stable, so equal fitness within a target keeps
        # trial order and the group's last entry is the winner.
        order = np.lexsort((trial_fitness.reshape(-1), target))
        ranked = target[order]
        last = np.empty(len(ranked), bool)
        last[-1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=last[:-1])
        winners, members = order[last], ranked[last]
        flat_fitness = fitness.reshape(-1)
        challengers = trial_fitness.reshape(-1)[winners]
        wins = challengers >= flat_fitness[members]
        members = members[wins]
        flat_fitness[members] = challengers[wins]
        dim = pop.shape[-1]
        pop.reshape(-1, dim)[members] = trials.reshape(-1, dim)[winners[wins]]

    def _respond_to_change(self, instance, pop, fitness, memory, rng):
        cfg = self.config
        subs, size, dim = pop.shape
        rows = self._rows
        memory.extend(pop[rows[:, 0], fitness.argmax(1)])
        redraw = int(round(cfg.reinit_fraction * size))
        order = np.argsort(fitness, axis=1, kind="stable")
        # one draw in the order of one draw per subpopulation
        pop[rows, order[:, :redraw]] = rng.uniform_vector(
            DOMAIN_LOW, DOMAIN_HIGH, (subs, redraw, dim))
        # the newest entries, newest first, reseed the first subpopulations
        seeds = np.reshape(memory, (-1, dim))[::-1][:subs]
        pop[rows[:len(seeds), 0], order[:len(seeds), 0]] = seeds
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

    def __init__(self, config=OptimizerConfig()):
        self.pool_size = config.subpopulations * config.subpopulation_size

    def optimize(self, instance, rng):
        dim = instance.spec.dimension
        env = instance.t
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
            if instance.frozen or instance.t != env:
                env = instance.t
                points = np.empty((0, dim))
                values = np.empty(0)
                continue
            points = np.concatenate([points, batch])
            values = np.concatenate([values, batch_values])
            # best first; the stable sort keeps ties in the order drawn
            keep = np.argsort(-values, kind="stable")[:self.pool_size]
            points = points[keep]
            values = values[keep]
            instance.report_population(points)


OPTIMIZERS = {
    CrowdingDE.name: CrowdingDE,
    RandomSearch.name: RandomSearch,
}


def make_optimizer(name, config=OptimizerConfig()):
    """Look up a bundled optimizer by its registry name."""
    try:
        cls = OPTIMIZERS[name]
    except KeyError:
        known = ", ".join(sorted(OPTIMIZERS))
        raise ValueError(f"unknown optimizer {name!r}; known: {known}") from None
    return cls(config)
