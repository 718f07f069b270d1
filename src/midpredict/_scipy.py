"""scipy entry points loaded on first call.

Only the LMI solver needs scipy, so importing it here, inside the call,
keeps it out of every other subcommand's start-up.
"""


def minimize(*args, **kwargs):
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)
