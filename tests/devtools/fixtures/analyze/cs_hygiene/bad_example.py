"""Deliberately bad module exercising every CS hygiene rule.

Never imported — ``tests/devtools/test_lint.py`` feeds it to the CS
pass and pins every finding's (line, col), so keep its lines in place.
One violation per rule, plus the numpy and import variants.
"""

import random
import time
from random import randint

import numpy


def corrupt_cache(hierarchy):
    # CS1: staged mutator called outside cache/hierarchy/core.
    hierarchy.llc.evict_way(0, 0)
    hierarchy.llc.fill_way(0, 0, 0x123)
    hierarchy.llc.invalidate(0x123)


def unseeded_choices():
    # CS2: global-generator draws and unseeded constructions.
    pick = random.randint(0, 10)
    generator = random.Random()
    noise = numpy.random.rand(4)
    return pick, generator, noise, randint(0, 3)


def wall_clock_timestamp():
    # CS3: host wall-clock reads.
    return time.time()


def fudge_counters(cache):
    # CS4: stats counters mutated outside their owning layers.
    cache.stats.hits += 1
    cache.stats.misses = 0


def fudge_packed_counters(hierarchy):
    # CS4 (widened for the packed cache layout): per-core stats through
    # a subscripted container, and a *_stats local alias.
    hierarchy.core_stats[0].llc_misses += 1
    core_stats = hierarchy.core_stats[1]
    core_stats.l1d_accesses = 7
