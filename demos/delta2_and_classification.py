"""Doubling probes, theta-bounds and membership classification.

The doubling estimate at zero decides whether the class, large and small
spaces coincide; the theta-bound turns it into an explicit local constant.
The last section classifies geometrically enveloped sequences and prints the
certified tail bounds behind each verdict.
"""

from orliczseq import (ExpLinear, ExpSquare, GeometricEnvelope, Power,
                       SeqVector, SpaceParams, TabulatedConvex,
                       WeightSequence, classify, delta2_at_zero, theta_bound)

W1 = WeightSequence.constant(1.0)


def main():
    print("doubling constants at zero (limsup of phi(2t)/phi(t)):\n")
    families = [Power(1.0), Power(1.5), Power(2.0), Power(3.0),
                ExpSquare(), ExpLinear(),
                TabulatedConvex([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])]
    for phi in families:
        rep = delta2_at_zero(phi)
        print(f"  {phi.descriptor():>12}: holds={rep.holds}  "
              f"estimate={rep.limsup_estimate:.6g}  "
              f"({rep.probes_used} probes)")

    print("\nlocal scaling constants phi(theta*t) <= c * phi(t) on (0, 1]:")
    for phi in (Power(2.0), ExpSquare(), ExpLinear()):
        for theta in (2.0, 5.0):
            tb = theta_bound(phi, theta, 1.0)
            print(f"  {phi.descriptor():>8} theta={theta:g}: c = {tb.c_theta:.6g}")

    print("\nclassifying a geometrically enveloped sequence:")
    params = SpaceParams(1.0, Power(2.0), W1)
    env = GeometricEnvelope(1.0, 0.5)
    p = SeqVector({m: 0.5 ** abs(m) for m in range(-10, 11)})
    rep = classify(params, p, env)
    print(f"  in class: {rep.in_class}, in large: {rep.in_large}, "
          f"in small: {rep.in_small}")
    print(f"  large-space witness scale: {rep.large_witness_rho}")
    print(f"  {len(rep.certificates)} tail certificates; the first few:")
    for cert in rep.certificates[:4]:
        upper = "overflow" if cert.modular_upper is None else f"{cert.modular_upper:.6g}"
        print(f"    rho={cert.rho:<12g} trunc={cert.trunc:>3} "
              f"tail<={cert.tail_bound:.3e}  modular<={upper}")

    # without a concrete vector the verdicts cover the whole envelope class
    bare = classify(params, envelope=env)
    print(f"  envelope class alone: in small = {bare.in_small} "
          f"(note: {bare.note})")


if __name__ == "__main__":
    main()
