"""Pinned verify-grid rows: any change to draw order or coverage counting fails here.

The values were produced by the dense-tensor counter and the pending-mask
`uniform_batch`; the interval counter and the one-pass draw must reproduce
them bit for bit.
"""

from __future__ import annotations

from specmask.stats import GridRow, exact_masked_mean_multi, verify_grid

TRIALS = 2000

# (extent, max_width, count, mc_mean, mc_stderr, passed, reran)
PINNED = [
    (1, 0, 1, 0.0, 0.0, True, False),
    (1, 0, 2, 0.0, 0.0, True, False),
    (1, 0, 3, 0.0, 0.0, True, False),
    (1, 1, 1, 0.4945, 0.01118245942086756, True, False),
    (1, 1, 2, 0.5085, 0.011181519941139353, True, False),
    (1, 1, 3, 0.4935, 0.011182191006142263, True, False),
    (1, 2, 1, 0.674, 0.010484128885092914, True, False),
    (1, 2, 2, 0.6605, 0.010591315450948043, True, False),
    (1, 2, 3, 0.6725, 0.010496521494368544, True, False),
    (1, 3, 1, 0.738, 0.009834956186053437, True, False),
    (1, 3, 2, 0.766, 0.009469257279042973, True, False),
    (1, 3, 3, 0.761, 0.009538605374804438, True, False),
    (2, 0, 1, 0.0, 0.0, True, False),
    (2, 0, 2, 0.0, 0.0, True, False),
    (2, 0, 3, 0.0, 0.0, True, False),
    (2, 1, 1, 0.519, 0.01117505887995608, True, False),
    (2, 1, 2, 1.013, 0.0157968436763509, True, False),
    (2, 1, 3, 1.0025, 0.015917712203105398, True, False),
    (2, 2, 1, 0.8145, 0.015673790506907613, True, False),
    (2, 2, 2, 1.433, 0.015406952556996686, True, False),
    (2, 2, 3, 1.431, 0.015483519292616987, True, False),
    (2, 3, 1, 0.977, 0.0157911424567713, True, False),
    (2, 3, 2, 1.651, 0.012852318508561897, True, False),
    (2, 3, 3, 1.6295, 0.013292976589662176, True, False),
    (3, 0, 1, 0.0, 0.0, True, False),
    (3, 0, 2, 0.0, 0.0, True, False),
    (3, 0, 3, 0.0, 0.0, True, False),
    (3, 1, 1, 0.484, 0.01117740878887485, True, False),
    (3, 1, 2, 1.01, 0.015574700178264152, True, False),
    (3, 1, 3, 1.4935, 0.01977813090843307, True, False),
    (3, 2, 1, 0.8885, 0.01664849726643865, True, False),
    (3, 2, 2, 1.6365, 0.019605511037244495, True, False),
    (3, 2, 3, 2.2495, 0.018118747735695058, True, False),
    (3, 3, 1, 1.1525, 0.019565614777993057, True, False),
    (3, 3, 2, 1.9515, 0.019137842185098897, True, False),
    (3, 3, 3, 2.5605, 0.015436612954588029, True, False),
    (4, 0, 1, 0.0, 0.0, True, False),
    (4, 0, 2, 0.0, 0.0, True, False),
    (4, 0, 3, 0.0, 0.0, True, False),
    (4, 1, 1, 0.4965, 0.011182862030875672, True, False),
    (4, 1, 2, 1.004, 0.016050570407471584, True, False),
    (4, 1, 3, 1.5025, 0.01925310925819656, True, False),
    (4, 2, 1, 0.916, 0.017018131754226198, True, False),
    (4, 2, 2, 1.728, 0.020957757843025657, True, False),
    (4, 2, 3, 2.3875, 0.022658962670313202, True, False),
    (4, 3, 1, 1.2565, 0.021507793182560405, True, False),
    (4, 3, 2, 2.21, 0.023296380849401055, True, False),
    (4, 3, 3, 2.903, 0.022034932927843625, True, False),
    (5, 0, 1, 0.0, 0.0, True, False),
    (5, 0, 2, 0.0, 0.0, True, False),
    (5, 0, 3, 0.0, 0.0, True, False),
    (5, 1, 1, 0.495, 0.011182576850283937, True, False),
    (5, 1, 2, 1.02, 0.015793185630396993, True, False),
    (5, 1, 3, 1.51, 0.019225889248841114, True, False),
    (5, 2, 1, 0.9285, 0.017287084677536698, True, False),
    (5, 2, 2, 1.809, 0.02223750780498319, True, False),
    (5, 2, 3, 2.55, 0.024880906932121312, True, False),
    (5, 3, 1, 1.3105, 0.02278825415128662, True, False),
    (5, 3, 2, 2.3745, 0.026305339009984552, True, False),
    (5, 3, 3, 3.203, 0.02571431727766709, True, False),
    (6, 0, 1, 0.0, 0.0, True, False),
    (6, 0, 2, 0.0, 0.0, True, False),
    (6, 0, 3, 0.0, 0.0, True, False),
    (6, 1, 1, 0.4945, 0.011182459420867562, True, False),
    (6, 1, 2, 1.001, 0.015736051336209724, True, False),
    (6, 1, 3, 1.496, 0.019753154015163584, True, False),
    (6, 2, 1, 0.944, 0.01745234345714274, True, False),
    (6, 2, 2, 1.874, 0.022788630077966845, True, False),
    (6, 2, 3, 2.5865, 0.025731108020448323, True, False),
    (6, 3, 1, 1.322, 0.02282363816812768, True, False),
    (6, 3, 2, 2.4585, 0.02808973819201325, True, False),
    (6, 3, 3, 3.379, 0.02873312193528705, True, False),
]


def test_verify_grid_rows_are_pinned():
    rows = verify_grid(range(1, 7), range(0, 4), (1, 2, 3), TRIALS, seed=5)
    expected = [
        GridRow(
            extent=extent,
            max_width=max_width,
            count=count,
            exact=exact_masked_mean_multi(max_width, count, extent),
            mc_mean=mc_mean,
            mc_stderr=mc_stderr,
            trials=TRIALS,
            passed=passed,
            reran=reran,
        )
        for extent, max_width, count, mc_mean, mc_stderr, passed, reran in PINNED
    ]
    assert rows == expected
