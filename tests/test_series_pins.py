"""Bit-for-bit pins of the leaf-graph and PCF series on non-constant roofs.

The bundled configs run the SectionChart series only on constant roofs and
pcf_gradient only in d=3, so their digests cannot see a change in these
series' last bits. The literals below are float.hex values printed by
`tests/oracles.py` (see `series_pins` there): three roofs, two chart
points and four quadrilaterals each. `RETURN_PINS` holds the bump return
series ledgers and the heteroclinic datum's backward distance on the kappa
setup (see `return_pins`), and the reference test holds
`perturb.return_series` to the per-point loop it replaced: every ledger
keeps its bits whether its point comes in one call with all the others,
in reverse order, or in a call split across the batch bound.
"""

import numpy as np
import pytest
from oracles import return_pin_setups, return_pins, return_series_reference, series_pins

from anosovlab import perturb
from anosovlab.flow import BATCH_ORBITS

PINS = {'companion3_cos': {'t_series': ['0x1.01d9d23aa5a2bp-12', '0x1.26b6589d2a429p-6'],
                           't_gradient_at_zero': [['0x1.59f38d53e1631p-4', '0x1.277ac500780d1p-3'],
                                                  ['-0x1.ba515d177a761p-4',
                                                   '-0x1.8ace89db7a1fap-3']],
                           'unstable_slope': [['-0x1.05fa83c1fc41cp-3', '0x1.871a6d0c73db5p-3'],
                                              ['-0x1.176acf4caf5e0p-1', '-0x1.166643c3bea46p-2']],
                           'temporal_distance_series': ['-0x1.a989c55d822acp-9',
                                                        '0x1.319cbe3ead9ecp-9',
                                                        '0x1.695fa00cee948p-9',
                                                        '-0x1.32060e50a5000p-11'],
                           'pcf_gradient': [['0x1.f764148345aa6p-3', '-0x1.6a45418540e1fp-2'],
                                            ['0x1.eb3e7d6f842a1p-4', '0x1.5e6a024d0eee5p-11'],
                                            ['0x1.cb9ad60bb033bp-5', '0x1.b1ed4e3ba302fp-4'],
                                            ['0x1.d438f7b2b4108p-5', '-0x1.70bda7d731ce9p-3']]},
        'companion3_seven_term': {'t_series': ['0x1.425e85693ada7p-6', '0x1.7cab46f8839fcp-3'],
                                  't_gradient_at_zero': [['0x1.ccf79d506240dp-6',
                                                          '-0x1.6a14bc8208011p-5'],
                                                         ['-0x1.2c6fc38b8fef0p-4',
                                                          '-0x1.7f71dfa61a0eep-3']],
                                  'unstable_slope': [['-0x1.41a43200b98c4p-4',
                                                      '-0x1.916760ae3fa59p-2'],
                                                     ['-0x1.4b36a04f4959bp-3',
                                                      '-0x1.cba3e5621f398p-2']],
                                  'temporal_distance_series': ['0x1.597880e0174cdp-9',
                                                               '-0x1.610498fb627b1p-8',
                                                               '-0x1.f0c19c07efbe3p-8',
                                                               '-0x1.e298ed790a9b8p-11'],
                                  'pcf_gradient': [['-0x1.15594d450a77ap-3',
                                                    '-0x1.c4bb53a1a663fp-6'],
                                                   ['-0x1.27b21d14c4310p-4',
                                                    '-0x1.0fa0a980bbe47p-2'],
                                                   ['-0x1.2f057d93875c5p-3',
                                                    '-0x1.0e6bfe219cefcp-2'],
                                                   ['0x1.05a4dbcc82312p-2',
                                                    '-0x1.c0a41cb0d264cp-2']]},
        'quartic_cos': {'t_series': ['0x1.58399e2f7b0c7p-13', '-0x1.4e7a5d38e3f9cp-10'],
                        't_gradient_at_zero': [['-0x1.febba895240c4p-8',
                                                '-0x1.c0b351e15b2e4p-8',
                                                '0x1.bda7e63bd1452p-7'],
                                               ['0x1.0de3352d2ede0p-7',
                                                '0x1.c4467dc4c1514p-8',
                                                '-0x1.2db63784fc5dcp-6']],
                        'unstable_slope': [['0x1.af5090fdc7a17p-10',
                                            '0x1.abb7014dc8f81p-9',
                                            '0x1.e18dac7daafa6p-8'],
                                           ['0x1.3fabcaef14c58p-6',
                                            '0x1.53a2fe904f014p-7',
                                            '0x1.283f368b07bd2p-10']],
                        'temporal_distance_series': ['0x1.363c800711e60p-15',
                                                     '0x1.6186fcf9a5600p-14',
                                                     '-0x1.d88db8ae44dc0p-16',
                                                     '-0x1.870e3411b0eb4p-13'],
                        'pcf_gradient': [['-0x1.6f6531875db6fp-7',
                                          '-0x1.b72a158d33343p-9',
                                          '0x1.70715cd4b7093p-10'],
                                         ['-0x1.441baa6e902ebp-7',
                                          '-0x1.a48ea955b3d32p-9',
                                          '-0x1.7745d3f0f9b67p-10'],
                                         ['-0x1.1622de95006f9p-11',
                                          '-0x1.7f326ccdedadap-10',
                                          '0x1.6cc28ece0feabp-10'],
                                         ['0x1.11edb88a08c03p-7',
                                          '0x1.82a6b96d5b73bp-9',
                                          '-0x1.2e9a45da65e7fp-9']]}}


# The return series reads no roof, so both roofs pin the same ledgers.
RETURN_LEDGERS = {'ledgers': [{'steps': [20, 21],
                               'gaps': ['0x1.21f71735b6003p-10', '0x1.b5c6c8f383bddp-11'],
                               'terms': ['-0x1.5d7e6f61da7a0p-15', '0x0.0p+0'],
                               'total': '-0x1.5d7e6f61da7a0p-15'},
                              {'steps': [1, 32, 33],
                               'gaps': ['0x1.d9acefb325a62p-3',
                                        '0x1.3db2be2666760p-15',
                                        '0x1.dfa585c8f9057p-16'],
                               'terms': ['0x1.a81550e39555cp-11',
                                         '-0x1.7973f7a37fc00p-20',
                                         '0x0.0p+0'],
                               'total': '0x1.a75896e7c395ep-11'},
                              {'steps': [1, 63, 64],
                               'gaps': ['0x1.d9acefb325a62p-3',
                                        '0x1.aa2a7199284e2p-28',
                                        '0x1.41b3fa85cb7ffp-28'],
                               'terms': ['0x1.9ecfd7636eb25p-16',
                                         '-0x1.fa065a5800000p-33',
                                         '0x0.0p+0'],
                               'total': '0x1.9eceda6041865p-16'},
                              {'steps': [1, 69, 70],
                               'gaps': ['0x1.d9acefb325a62p-3',
                                        '0x1.3b6d28a04a81fp-30',
                                        '0x1.dc3779124b873p-31'],
                               'terms': ['-0x1.1847c599c2f82p-17',
                                         '-0x1.7688ad3000000p-35',
                                         '0x0.0p+0'],
                               'total': '-0x1.1848233bee442p-17'}],
                  'backward_distance': '0x1.ff9a7c4053dccp-34'}
RETURN_PINS = {'constant': RETURN_LEDGERS, 'cos': RETURN_LEDGERS}


def test_series_pins():
    assert series_pins() == PINS


def test_return_pins():
    assert return_pins() == RETURN_PINS


@pytest.fixture(scope="module")
def pin_setups():
    return return_pin_setups()


@pytest.mark.parametrize("roof", ["constant", "cos"])
def test_return_series_matches_reference(pin_setups, roof):
    # every x_sequence entry and every +-h step of claim44_check
    setup = pin_setups[roof]
    chart, bump, y_r = setup.chart, setup.bump, setup.datum.y_r
    dirs = np.eye(chart.dim_unstable)
    points = [np.array(x) for x in setup.x_sequence]
    points += [sign * h * e for h in setup.claim_steps for e in dirs for sign in (1, -1)]

    def hexed(steps, gaps, terms, total):
        return steps, [g.hex() for g in gaps], [t.hex() for t in terms], total.hex()

    def series(xs):
        return perturb.return_series(chart, bump, xs, y_r)

    expected = [hexed(*return_series_reference(chart, bump, x, y_r)) for x in points]
    cut = BATCH_ORBITS // 2 + 1   # the first of two calls walks two batches
    runs = {
        "one call": series(points),
        "reversed": series(points[::-1])[::-1],
        "two calls": series(points[:cut]) + series(points[cut:]),
    }
    for name, ledgers in runs.items():
        got = [hexed(ledger.steps, ledger.gaps, ledger.terms, ledger.total) for ledger in ledgers]
        assert got == expected, name
