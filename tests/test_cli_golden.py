"""Golden CLI output: exact stdout bytes, stderr text and exit codes.

Every subcommand runs in ``json`` and in ``csv``; the records were taken
from the CLI before its flag groups and certificate pipelines were shared,
and the shared code must reproduce them byte for byte.  The cases include
the branches ``test_cli.py`` does not reach: ``chain --form a``, failed
witnesses of ``embed`` and ``chain``, ``embed --mode b --in`` and the usage
checks on ``--t0`` and ``--kpp``.  ``FLAGS`` pins every subcommand's option
surface: option strings, dest, type, default, required and choices.
"""

import argparse
import math

import pytest

from orliczseq.cli import build_parser, run

SUPPRESS = argparse.SUPPRESS
FILES = {
    "vec": "0,0.4,0\n1,0,-0.3\n-2,0.25,0.1\n5,0.05,0\n",
    "q": "5,2,0\n",
    "wt": "0,2\n1,0.75\n-3,4\n",
    "one": "0,1,0\n",
}

# (argv with {file} placeholders, --format, exit code, stdout)
GOLDEN = [
    ('norm --phi expsq --k 1.5 --weights const:0.7 --in {vec}', 'json', 0,
     '{"value": 5814877.3660986591, "rho_low": 5814877.3660933711,'
     ' "rho_high": 5814877.3660986591,'
     ' "modular_at_value": 0.99999999999879818, "iterations": 40}\n'),
    ('norm --phi expsq --k 1.5 --weights const:0.7 --in {vec}', 'csv', 0,
     'value,rho_low,rho_high,modular_at_value,iterations\n'
     '5814877.3660986591,5814877.3660933711,5814877.3660986591,'
     '0.99999999999879818,40\n'),
    ('norm --phi power:2 --k 1 --weights table:{wt}:0.5 --inf-w 0.25 '
     '--in {vec}', 'json', 0,
     '{"value": 0.81777136169004128, "rho_low": 0.8177713616895268,'
     ' "rho_high": 0.81777136169004128,'
     ' "modular_at_value": 0.99999999999942535, "iterations": 40}\n'),
    ('norm --phi power:2 --k 1 --weights table:{wt}:0.5 --inf-w 0.25 '
     '--in {vec}', 'csv', 0,
     'value,rho_low,rho_high,modular_at_value,iterations\n'
     '0.81777136169004128,0.8177713616895268,0.81777136169004128,'
     '0.99999999999942535,40\n'),
    ('modular --phi explin --in {vec} --rho 0.75', 'json', 0,
     '{"rho": 0.75, "modular": 0.33827021568097398}\n'),
    ('modular --phi explin --in {vec} --rho 0.75', 'csv', 0,
     'rho,modular\n'
     '0.75,0.33827021568097398\n'),
    ('classify --phi power:2 --in {vec} --env-c 2 --env-r 0.7', 'json', 0,
     '{"in_class": true, "in_large": true, "in_small": true,'
     ' "large_witness_rho": 1, "note": "tail-certified on dyadic scales",'
     ' "certificates": [{"rho": 1, "trunc": 5,'
     ' "tail_bound": 0.52728713146666628,'
     ' "modular_upper": 5.2880533110666654}, {"rho": 0.5, "trunc": 5,'
     ' "tail_bound": 2.1091485258666651, "modular_upper": 21.152213244266662},'
     ' {"rho": 0.25, "trunc": 6, "tail_bound": 4.1339311106986631,'
     ' "modular_upper": 82.077874746026652}, {"rho": 0.125, "trunc": 8,'
     ' "tail_bound": 3.9702274387149949, "modular_upper": 320.92003015817733},'
     ' {"rho": 0.0625, "trunc": 10, "tail_bound": 3.8130064321418806,'
     ' "modular_upper": 1276.5813539722872}, {"rho": 0.03125, "trunc": 12,'
     ' "tail_bound": 3.6620113774290615, "modular_upper": 5099.5077603884783},'
     ' {"rho": 0.015625, "trunc": 14, "tail_bound": 3.5169957268828691,'
     ' "modular_upper": 20391.483365211072}, {"rho": 0.0078125, "trunc": 16,'
     ' "tail_bound": 3.377722696098306, "modular_upper": 81559.645072484622},'
     ' {"rho": 0.00390625, "trunc": 18, "tail_bound": 3.2439648773328127,'
     ' "modular_upper": 326232.54092175787}, {"rho": 0.001953125, "trunc": 20,'
     ' "tail_bound": 3.1155038681904323, "modular_upper": 1304924.3634778305},'
     ' {"rho": 0.0009765625, "trunc": 22, "tail_bound": 2.9921299150100906,'
     ' "modular_upper": 5219691.8833904071}, {"rho": 0.00048828125,'
     ' "trunc": 24, "tail_bound": 2.8736415703756908,'
     ' "modular_upper": 20878762.183633339}, {"rho": 0.000244140625,'
     ' "trunc": 26, "tail_bound": 2.7598453641888123,'
     ' "modular_upper": 83515043.59646222}, {"rho": 0.0001220703125,'
     ' "trunc": 28, "tail_bound": 2.6505554877669342,'
     ' "modular_upper": 334060169.45124537}, {"rho": 6.103515625e-05,'
     ' "trunc": 30, "tail_bound": 2.5455934904513637,'
     ' "modular_upper": 1336240673.0657883}, {"rho": 3.0517578125e-05,'
     ' "trunc": 32, "tail_bound": 2.4447879882294892,'
     ' "modular_upper": 5344962687.7116318}, {"rho": 1.52587890625e-05,'
     ' "trunc": 34, "tail_bound": 2.3479743838955995,'
     ' "modular_upper": 21379850746.475246}, {"rho": 7.62939453125e-06,'
     ' "trunc": 35, "tail_bound": 4.602029792435375,'
     ' "modular_upper": 85519402983.083435}, {"rho": 3.814697265625e-06,'
     ' "trunc": 37, "tail_bound": 4.419789412654934,'
     ' "modular_upper": 342077611924.10529}, {"rho": 1.9073486328125e-06,'
     ' "trunc": 39, "tail_bound": 4.244765751913798,'
     ' "modular_upper": 1368310447688.5186}, {"rho": 9.5367431640625e-07,'
     ' "trunc": 41, "tail_bound": 4.0766730281380097,'
     ' "modular_upper": 5473241790746.4844}]}\n'),
    ('classify --phi power:2 --in {vec} --env-c 2 --env-r 0.7', 'csv', 0,
     'rho,trunc,tail_bound,modular_upper\n'
     '1,5,0.52728713146666628,5.2880533110666654\n'
     '0.5,5,2.1091485258666651,21.152213244266662\n'
     '0.25,6,4.1339311106986631,82.077874746026652\n'
     '0.125,8,3.9702274387149949,320.92003015817733\n'
     '0.0625,10,3.8130064321418806,1276.5813539722872\n'
     '0.03125,12,3.6620113774290615,5099.5077603884783\n'
     '0.015625,14,3.5169957268828691,20391.483365211072\n'
     '0.0078125,16,3.377722696098306,81559.645072484622\n'
     '0.00390625,18,3.2439648773328127,326232.54092175787\n'
     '0.001953125,20,3.1155038681904323,1304924.3634778305\n'
     '0.0009765625,22,2.9921299150100906,5219691.8833904071\n'
     '0.00048828125,24,2.8736415703756908,20878762.183633339\n'
     '0.000244140625,26,2.7598453641888123,83515043.59646222\n'
     '0.0001220703125,28,2.6505554877669342,334060169.45124537\n'
     '6.103515625e-05,30,2.5455934904513637,1336240673.0657883\n'
     '3.0517578125e-05,32,2.4447879882294892,5344962687.7116318\n'
     '1.52587890625e-05,34,2.3479743838955995,21379850746.475246\n'
     '7.62939453125e-06,35,4.602029792435375,85519402983.083435\n'
     '3.814697265625e-06,37,4.419789412654934,342077611924.10529\n'
     '1.9073486328125e-06,39,4.244765751913798,1368310447688.5186\n'
     '9.5367431640625e-07,41,4.0766730281380097,5473241790746.4844\n'),
    ('classify --phi expsq --k 1 --in {vec}', 'json', 0,
     '{"in_class": true, "in_large": true, "in_small": true,'
     ' "large_witness_rho": 1,'
     ' "note": "finitely supported; member of every scale",'
     ' "certificates": []}\n'),
    ('classify --phi expsq --k 1 --in {vec}', 'csv', 0,
     'rho,trunc,tail_bound,modular_upper\n'),
    # a tail majorant past double range certifies no scale
    ('classify --phi power:2 --k 200 --env-c 1 --env-r 0.999', 'json', 0,
     '{"in_class": false, "in_large": false, "in_small": false,'
     ' "large_witness_rho": null, "note": "no scale certified",'
     ' "certificates": []}\n'),
    ('delta2 --phi expsq --depth 40', 'json', 0,
     '{"limsup_estimate": 4, "sup_ratio": 31.192874850577361, "holds": true,'
     ' "probes_used": 41, "truncated": false}\n'),
    ('delta2 --phi expsq --depth 40', 'csv', 0,
     'limsup_estimate,sup_ratio,holds,probes_used,truncated\n'
     '4,31.192874850577361,True,41,False\n'),
    ('dominate --phi power:2 --psi expsq --gamma 1', 'json', 0,
     '{"holds": true, "gamma": 1, "t0": Infinity, "grid_checked": 4096,'
     ' "first_violation": null}\n'),
    ('dominate --phi power:2 --psi expsq --gamma 1', 'csv', 0,
     'holds,gamma,t0,grid_checked,first_violation\n'
     'True,1,Infinity,4096,\n'),
    ('dominate --phi power:1 --psi power:2 --gamma 1 --t0 0.5 '
     '--grid-points 300', 'json', 1,
     '{"holds": false, "gamma": 1, "t0": 0.5, "grid_checked": 300,'
     ' "first_violation": 5.0000000000000004e-19}\n'),
    ('dominate --phi power:1 --psi power:2 --gamma 1 --t0 0.5 '
     '--grid-points 300', 'csv', 1,
     'holds,gamma,t0,grid_checked,first_violation\n'
     'False,1,0.5,300,5.0000000000000004e-19\n'),
    ('embed --mode a --phi power:2 --psi expsq --gamma 1 --kprime 1 '
     '--k 0 --in {vec}', 'json', 0,
     '{"mode": "a", "holds": true, "gamma": 1, "t0": Infinity,'
     ' "first_violation": null, "c": 1, "source_k": 1, "target_k": 0,'
     ' "target_norm": 0.57008771254986668, "source_norm": 13416.864488689513,'
     ' "bound": 13416.864488690513, "ok": true}\n'),
    ('embed --mode a --phi power:2 --psi expsq --gamma 1 --kprime 1 '
     '--k 0 --in {vec}', 'csv', 0,
     'mode,holds,gamma,t0,first_violation,c,source_k,target_k,target_norm,'
     'source_norm,bound,ok\n'
     'a,True,1,Infinity,,1,1,0,0.57008771254986668,13416.864488689513,'
     '13416.864488690513,True\n'),
    ('embed --mode a --phi power:2 --psi expsq --gamma 1 --k 0.5', 'json', 0,
     '{"mode": "a", "holds": true, "gamma": 1, "t0": Infinity,'
     ' "first_violation": null, "c": 1, "source_k": 0.5, "target_k": 0.5}\n'),
    ('embed --mode a --phi power:2 --psi expsq --gamma 1 --k 0.5', 'csv', 0,
     'mode,holds,gamma,t0,first_violation,c,source_k,target_k\n'
     'a,True,1,Infinity,,1,0.5,0.5\n'),
    ('embed --mode a --phi power:1 --psi power:2 --gamma 1 --kprime 1 '
     '--k 0', 'json', 1,
     '{"mode": "a", "holds": false, "gamma": 1, "t0": Infinity,'
     ' "first_violation": 9.9999999999999998e-13}\n'),
    ('embed --mode a --phi power:1 --psi power:2 --gamma 1 --kprime 1 '
     '--k 0', 'csv', 1,
     'mode,holds,gamma,t0,first_violation\n'
     'a,False,1,Infinity,9.9999999999999998e-13\n'),
    ('embed --mode b --phi power:3 --psi power:2 --gamma 1 --t0 1 --k 1 '
     '--weights const:0.25', 'json', 0,
     '{"mode": "b", "holds": true, "gamma": 1, "t0": 1,'
     ' "first_violation": null, "c": 2, "source_k": 1, "target_k": 0}\n'),
    ('embed --mode b --phi power:3 --psi power:2 --gamma 1 --t0 1 --k 1 '
     '--weights const:0.25', 'csv', 0,
     'mode,holds,gamma,t0,first_violation,c,source_k,target_k\n'
     'b,True,1,1,,2,1,0\n'),
    ('embed --mode b --phi power:3 --psi power:2 --gamma 1 --t0 1 --k 1 '
     '--in {vec} --tol 1e-6', 'json', 0,
     '{"mode": "b", "holds": true, "gamma": 1, "t0": 1,'
     ' "first_violation": null, "c": 1, "source_k": 1, "target_k": 0,'
     ' "target_norm": 0.48007843397972461, "source_norm": 0.87607077339697748,'
     ' "bound": 0.8760717733969775, "ok": true}\n'),
    ('embed --mode b --phi power:3 --psi power:2 --gamma 1 --t0 1 --k 1 '
     '--in {vec} --tol 1e-6', 'csv', 0,
     'mode,holds,gamma,t0,first_violation,c,source_k,target_k,target_norm,'
     'source_norm,bound,ok\n'
     'b,True,1,1,,1,1,0,0.48007843397972461,0.87607077339697748,'
     '0.8760717733969775,True\n'),
    ('embed --mode b --phi power:1 --psi power:2 --gamma 1 --t0 1 --k 1', 'json', 1,
     '{"mode": "b", "holds": false, "gamma": 1, "t0": 1,'
     ' "first_violation": 1.0000000000000001e-18}\n'),
    ('embed --mode b --phi power:1 --psi power:2 --gamma 1 --t0 1 --k 1', 'csv', 1,
     'mode,holds,gamma,t0,first_violation\n'
     'b,False,1,1,1.0000000000000001e-18\n'),
    ('tail-index --phi expsq --kprime 1 --k 0 --kappa 1 --epsilon 0.1', 'json', 0,
     '{"m_eps_kappa": 20, "m1": 0, "m2": 20, "theta": 20,'
     ' "c_theta": 3.0387767738406748e+173, "t_theta": 1, "covering_dim": 41}\n'),
    ('tail-index --phi expsq --kprime 1 --k 0 --kappa 1 --epsilon 0.1', 'csv', 0,
     'm_eps_kappa,m1,m2,theta,c_theta,t_theta,covering_dim\n'
     '20,0,20,20,3.0387767738406748e+173,1,41\n'),
    ('tail-index --phi expsq --kprime 1 --k 0 --kappa 1e-300 --epsilon 1e300', 'json', 0,
     '{"m_eps_kappa": 0, "m1": 0, "m2": 0, "theta": 4.9406564584124654e-324,'
     ' "c_theta": 4.9406564584124654e-324, "t_theta": 1, "covering_dim": 1}\n'),
    ('tail-index --phi explin --kprime 2 --k 0.5 --weights const:2 '
     '--inf-w 1.5 --kappa 2 --epsilon 0.3 --t-theta 0.5', 'json', 0,
     '{"m_eps_kappa": 6, "m1": 2, "m2": 6, "theta": 13.333333333333334,'
     ' "c_theta": 5231.97591039281, "t_theta": 0.5, "covering_dim": 13}\n'),
    ('tail-index --phi explin --kprime 2 --k 0.5 --weights const:2 '
     '--inf-w 1.5 --kappa 2 --epsilon 0.3 --t-theta 0.5', 'csv', 0,
     'm_eps_kappa,m1,m2,theta,c_theta,t_theta,covering_dim\n'
     '6,2,6,13.333333333333334,5231.97591039281,0.5,13\n'),
    ('covering --phi power:2 --kprime 1 --k 0 --kappa 1 --epsilon 0.5 '
     '--samples 5 --seed 3 --max-support 8', 'json', 0,
     '{"samples": 5, "covering_dim": 9, "m_eps_kappa": 4, "epsilon": 0.5,'
     ' "kappa": 1, "max_tail_modular": 0.22584177403310166,'
     ' "max_residual": 0.11880703210277098}\n'),
    ('covering --phi power:2 --kprime 1 --k 0 --kappa 1 --epsilon 0.5 '
     '--samples 5 --seed 3 --max-support 8', 'csv', 0,
     'sample,tail_modular,residual\n'
     '0,0.098068416897142852,0.078289693166348234\n'
     '1,1.8135385892247344e-05,0.0010646415444953569\n'
     '2,3.756932259919751e-05,0.0015323454775120642\n'
     '3,0.22584177403310166,0.11880703210277098\n'
     '4,1.4565020856916499e-05,0.00095410366499520439\n'),
    ('schauder-curve --phi power:2 --in {q}', 'json', 0,
     '{"points": [{"m": 0, "residual": 2}, {"m": 1, "residual": 2}, {"m": 2,'
     ' "residual": 2}, {"m": 3, "residual": 2}, {"m": 4, "residual": 2},'
     ' {"m": 5, "residual": 0}]}\n'),
    ('schauder-curve --phi power:2 --in {q}', 'csv', 0,
     'm,residual\n'
     '0,2\n'
     '1,2\n'
     '2,2\n'
     '3,2\n'
     '4,2\n'
     '5,0\n'),
    ('chain --form a --phi power:2 --psi expsq --gamma 1 --kpp 2 '
     '--kprime 1 --k 0 --kappa 1 --epsilon 0.5', 'json', 0,
     '{"constant": 1, "compact": true, "form": "compact+global",'
     ' "links": [{"kind": "compact", "constant": 1,'
     ' "detail": "tail index 4 at kappa=1, epsilon=0.5"},'
     ' {"kind": "continuous", "constant": 1, "detail": "mode a, c=1"}]}\n'),
    ('chain --form a --phi power:2 --psi expsq --gamma 1 --kpp 2 '
     '--kprime 1 --k 0 --kappa 1 --epsilon 0.5', 'csv', 0,
     'constant,compact,form\n'
     '1,True,compact+global\n'),
    ('chain --form a --phi power:1 --psi power:2 --gamma 1 --kpp 2 '
     '--kprime 1 --k 0 --kappa 1 --epsilon 0.5', 'json', 1,
     '{"holds": false, "first_violation": 9.9999999999999998e-13}\n'),
    ('chain --form a --phi power:1 --psi power:2 --gamma 1 --kpp 2 '
     '--kprime 1 --k 0 --kappa 1 --epsilon 0.5', 'csv', 1,
     'holds,first_violation\n'
     'False,9.9999999999999998e-13\n'),
    ('chain --form b --phi power:3 --psi power:2 --gamma 1 --t0 1 '
     '--kprime 1 --k 0.5 --kappa 1 --epsilon 0.5', 'json', 0,
     '{"constant": 1, "compact": true, "form": "compact+local",'
     ' "links": [{"kind": "compact", "constant": 1,'
     ' "detail": "tail index 16 at kappa=1, epsilon=0.5"},'
     ' {"kind": "continuous", "constant": 1, "detail": "mode b, c=1"}]}\n'),
    ('chain --form b --phi power:3 --psi power:2 --gamma 1 --t0 1 '
     '--kprime 1 --k 0.5 --kappa 1 --epsilon 0.5', 'csv', 0,
     'constant,compact,form\n'
     '1,True,compact+local\n'),
    ('chain --form b --phi power:1 --psi power:2 --gamma 1 --t0 1 '
     '--kprime 1 --k 0.5 --kappa 1 --epsilon 0.5', 'json', 1,
     '{"holds": false, "first_violation": 1.0000000000000001e-18}\n'),
    ('chain --form b --phi power:1 --psi power:2 --gamma 1 --t0 1 '
     '--kprime 1 --k 0.5 --kappa 1 --epsilon 0.5', 'csv', 1,
     'holds,first_violation\n'
     'False,1.0000000000000001e-18\n'),
]

# (argv, exit code, stderr); stdout stays empty
ERRORS = [
    ('chain --form a --phi power:2 --psi expsq --gamma 1 --kprime 1 '
     '--k 0 --kappa 1 --epsilon 0.5 --weights bad', 2,
     "error: unknown weight descriptor 'bad'\n"),
    ('chain --form b --phi power:1 --psi power:2 --gamma 1 --t0 1 '
     '--kprime 0.5 --k 1 --kappa 1 --epsilon 0.5', 1,
     'check failed: source order 0.5 must exceed target order 1\n'),
    ('embed --mode b --phi power:3 --psi power:2 --gamma 1 --k 1', 2,
     'error: mode b needs a finite --t0\n'),
    ('embed --mode b --phi power:3 --psi power:2 --gamma 1 --t0 inf '
     '--k 1', 2,
     'error: mode b needs a finite --t0\n'),
    ('chain --form b --phi power:3 --psi power:2 --gamma 1 --kprime 1 '
     '--k 0.5 --kappa 1 --epsilon 0.5', 2,
     'error: form b needs a finite --t0\n'),
    ('chain --form a --phi power:2 --psi expsq --gamma 1 --kprime 1 '
     '--k 0 --kappa 1 --epsilon 0.5', 2,
     'error: form a needs --kpp (outer source order)\n'),
    ('chain --form a --phi nope --psi expsq --gamma 1 --kprime 1 --k 0 '
     '--kappa 1 --epsilon 0.5', 2,
     "error: unknown function descriptor 'nope'\n"),
    ('chain --form b --phi power:3 --psi power:2 --gamma 1 --t0 1 '
     '--kprime 0.5 --k 1 --kappa 1 --epsilon 0.5', 1,
     'check failed: source order 0.5 must exceed target order 1\n'),
    ('embed --mode b --phi power:3 --psi power:2 --gamma 1 --k 1 '
     '--weights const:0', 2,
     "error: bad constant weight descriptor 'const:0'\n"),
    ('tail-index --phi expsq --kprime 1 --k 0 --kappa 1 --epsilon 0.1 '
     '--weights bad', 2,
     "error: unknown weight descriptor 'bad'\n"),
    ('tail-index --phi power:2 --kprime 1 --k 0 --kappa 1e200 --epsilon 1', 3,
     'numeric failure: scaling bound failed down to t_theta=1: '
     'scaling ratio overflows on (0, 1] at theta=2e+200\n'),
    # theta*t_theta past double range: the grid bound is retried at halved t_theta
    ('tail-index --phi expsq --kprime 1 --k 0 --kappa 1e150 --epsilon 1e-150 '
     '--t-theta 1e10', 3,
     'numeric failure: scaling bound failed down to t_theta=1.0842e-09: '
     'scaling ratio overflows on (0, 1.0842e-09] at theta=2e+300\n'),
    ('tail-index --phi expsq --kprime 1 --k 0 --kappa 1e300 --epsilon 1e-300', 3,
     'numeric failure: theta = 2*kappa/epsilon overflows double range '
     'at kappa=1e+300, epsilon=1e-300\n'),
    # 1/inf w overflows: the norm's lone term never binds, and mode b has no constant
    ('norm --phi power:2 --weights const:1e-310 --in {one}', 3,
     'numeric failure: norm bracket not representable: measure weights underflowed '
     'or single-term scale overflowed double range\n'),
    ('embed --mode b --phi power:3 --psi power:2 --gamma 1 --t0 1 --k 1 '
     '--weights const:1e-310', 3,
     "numeric failure: mode 'b' needs 1/inf w in double range, got inf w = 1e-310\n"),
    ('covering --phi power:2 --kprime 1 --k 0 --kappa 1 --epsilon 1 --max-support '
     + str(10 ** 400), 2,
     'error: max_support is beyond double range: '
     'log2(max_support + 1) must be at most 1024\n'),
    # the measure majorant is the space's: none for expsq at k > 0, and
    # none in double range when 2**k or sup w * 2**k overflows
    ('classify --phi expsq --k 1 --env-c 1 --env-r 0.5', 3,
     'numeric failure: measure grows superpolynomially (exponential generator '
     'with k > 0); no polynomial majorant exists\n'),
    ('classify --phi expsq --k 1 --env-c -1 --env-r 0.5', 2,
     'error: envelope amplitude must be finite and nonnegative\n'),
    ('classify --phi power:2 --k 1100 --env-c 1 --env-r 0.5', 3,
     'numeric failure: measure majorant overflows double range at k=1100\n'),
    ('classify --phi power:2 --k 100 --weights const:1e300 --env-c 1 --env-r 0.5', 3,
     'numeric failure: measure majorant overflows double range at k=100\n'),
]

FLAGS = {
    "norm": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--k",), "k", float, 0.0, False, None),
        (("--phi",), "phi", None, None, True, None),
        (("--weights",), "weights", None, "const:1", False, None),
        (("--inf-w",), "inf_w", float, None, False, None),
        (("--in",), "infile", None, None, True, None),
        (("--tol",), "tol", float, 1e-12, False, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
    "modular": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--k",), "k", float, 0.0, False, None),
        (("--phi",), "phi", None, None, True, None),
        (("--weights",), "weights", None, "const:1", False, None),
        (("--inf-w",), "inf_w", float, None, False, None),
        (("--in",), "infile", None, None, True, None),
        (("--rho",), "rho", float, None, True, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
    "classify": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--k",), "k", float, 0.0, False, None),
        (("--phi",), "phi", None, None, True, None),
        (("--weights",), "weights", None, "const:1", False, None),
        (("--inf-w",), "inf_w", float, None, False, None),
        (("--in",), "infile", None, None, False, None),
        (("--env-c",), "env_c", float, None, False, None),
        (("--env-r",), "env_r", float, None, False, None),
        (("--env-from",), "env_from", int, 0, False, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
    "delta2": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--phi",), "phi", None, None, True, None),
        (("--t-start",), "t_start", float, 1.0, False, None),
        (("--depth",), "depth", int, 60, False, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
    "dominate": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--phi",), "phi", None, None, True, None),
        (("--psi",), "psi", None, None, True, None),
        (("--gamma",), "gamma", float, None, True, None),
        (("--t0",), "t0", float, math.inf, False, None),
        (("--grid-points",), "grid_points", int, 4096, False, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
    "embed": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--mode",), "mode", None, None, True, ("a", "b")),
        (("--phi",), "phi", None, None, True, None),
        (("--psi",), "psi", None, None, True, None),
        (("--gamma",), "gamma", float, None, True, None),
        (("--t0",), "t0", float, None, False, None),
        (("--k",), "k", float, 0.0, False, None),
        (("--kprime",), "kprime", float, None, False, None),
        (("--weights",), "weights", None, "const:1", False, None),
        (("--inf-w",), "inf_w", float, None, False, None),
        (("--grid-points",), "grid_points", int, 4096, False, None),
        (("--in",), "infile", None, None, False, None),
        (("--tol",), "tol", float, 1e-09, False, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
    "tail-index": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--phi",), "phi", None, None, True, None),
        (("--kprime",), "kprime", float, None, True, None),
        (("--k",), "k", float, None, True, None),
        (("--weights",), "weights", None, "const:1", False, None),
        (("--inf-w",), "inf_w", float, None, False, None),
        (("--kappa",), "kappa", float, None, True, None),
        (("--epsilon",), "epsilon", float, None, True, None),
        (("--t-theta",), "t_theta", float, 1.0, False, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
    "covering": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--phi",), "phi", None, None, True, None),
        (("--kprime",), "kprime", float, None, True, None),
        (("--k",), "k", float, None, True, None),
        (("--weights",), "weights", None, "const:1", False, None),
        (("--inf-w",), "inf_w", float, None, False, None),
        (("--kappa",), "kappa", float, None, True, None),
        (("--epsilon",), "epsilon", float, None, True, None),
        (("--t-theta",), "t_theta", float, 1.0, False, None),
        (("--samples",), "samples", int, 1000, False, None),
        (("--seed",), "seed", int, 0, False, None),
        (("--max-support",), "max_support", int, 64, False, None),
        (("--tol",), "tol", float, 1e-12, False, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
    "schauder-curve": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--k",), "k", float, 0.0, False, None),
        (("--phi",), "phi", None, None, True, None),
        (("--weights",), "weights", None, "const:1", False, None),
        (("--inf-w",), "inf_w", float, None, False, None),
        (("--in",), "infile", None, None, True, None),
        (("--tol",), "tol", float, 1e-12, False, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
    "chain": {
        (("-h", "--help"), "help", None, SUPPRESS, False, None),
        (("--form",), "form", None, None, True, ("a", "b")),
        (("--phi",), "phi", None, None, True, None),
        (("--psi",), "psi", None, None, True, None),
        (("--gamma",), "gamma", float, None, True, None),
        (("--t0",), "t0", float, None, False, None),
        (("--kpp",), "kpp", float, None, False, None),
        (("--kprime",), "kprime", float, None, True, None),
        (("--k",), "k", float, None, True, None),
        (("--weights",), "weights", None, "const:1", False, None),
        (("--inf-w",), "inf_w", float, None, False, None),
        (("--kappa",), "kappa", float, None, True, None),
        (("--epsilon",), "epsilon", float, None, True, None),
        (("--t-theta",), "t_theta", float, 1.0, False, None),
        (("--grid-points",), "grid_points", int, 4096, False, None),
        (("--format",), "format", None, "json", False, ("json", "csv")),
    },
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in FILES.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv,fmt,code,stdout", GOLDEN)
def test_stdout_and_exit_code(capsys, files, argv, fmt, code, stdout):
    got = run(argv.format(**files).split() + ["--format", fmt])
    out, err = capsys.readouterr()
    assert (got, out, err) == (code, stdout, "")


@pytest.mark.parametrize("argv,code,stderr", ERRORS)
def test_stderr_and_exit_code(capsys, files, argv, code, stderr):
    got = run(argv.format(**files).split())
    out, err = capsys.readouterr()
    assert (got, out, err) == (code, "", stderr)


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_flag_surface():
    surface = {}
    for name, sp in _subparsers().items():
        surface[name] = {(tuple(a.option_strings), a.dest, a.type, a.default,
                          a.required, a.choices) for a in sp._actions}
    assert surface == FLAGS


@pytest.mark.parametrize("sub", sorted(FLAGS))
def test_help_exits_zero(capsys, sub):
    assert run([sub, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: orliczseq {sub} ")
