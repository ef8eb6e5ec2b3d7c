package repro.eval

import repro.SparkSpec
import repro.al.BootstrapAL

class ExperimentsSpec extends SparkSpec {

  test("load splits dexter problems by ratio") {
    val b = Experiments.load(spark, "dexter", sf = 0.08, ratioInit = 0.5, seed = 1)
    try {
      assert(b.initIds.size + b.unsolvedIds.size == b.ds.problems.size)
      assert(math.abs(b.initIds.size - b.ds.problems.size / 2) <= 1)
      assert(b.initIds.toSet.intersect(b.unsolvedIds.toSet).isEmpty)
    } finally Experiments.unload(b)
  }

  test("load with 30% ratio shrinks the initial set") {
    val b = Experiments.load(spark, "dexter", sf = 0.08, ratioInit = 0.3, seed = 1)
    try assert(b.initIds.size < b.unsolvedIds.size)
    finally Experiments.unload(b)
  }

  test("load uses train/test problem splits for wdc and music") {
    val b = Experiments.load(spark, "wdc", sf = 0.1)
    try {
      assert(b.initIds.forall(_.endsWith("_train")))
      assert(b.unsolvedIds.forall(_.endsWith("_test")))
      assert(b.initIds.size == 6 && b.unsolvedIds.size == 6)
    } finally Experiments.unload(b)
  }

  test("unknown dataset name is rejected") {
    assertThrows[IllegalArgumentException](Experiments.load(spark, "nope", 0.1))
  }

  test("speedups derive baseline/morer ratios from raw runs") {
    val runs = Seq(
      Experiments.RunResult("MoRER+Bootstrap", "d", 1000, 0.9, 2.0, 1000),
      Experiments.RunResult("Almser", "d", 1000, 0.9, 20.0, 1000),
      Experiments.RunResult("Ditto-all", "d", 0, 0.92, 50.0, 0))
    val sp = Experiments.speedups(runs)
    assert(sp.exists { case (ds, v, b, base, x) =>
      ds == "d" && v == "MoRER+Bootstrap" && b == 1000 && base == "Almser" && math.abs(x - 10.0) < 1e-9 })
    assert(sp.exists { case (_, _, _, base, x) => base == "Ditto-all" && math.abs(x - 25.0) < 1e-9 })
  }

  test("speedups match budget-specific baselines to the same budget") {
    val runs = Seq(
      Experiments.RunResult("MoRER+Bootstrap", "d", 1000, 0.9, 2.0, 1000),
      Experiments.RunResult("MoRER+Bootstrap", "d", 2000, 0.9, 4.0, 2000),
      Experiments.RunResult("Almser", "d", 1000, 0.9, 20.0, 1000),
      Experiments.RunResult("Almser", "d", 2000, 0.9, 40.0, 2000))
    val sp = Experiments.speedups(runs)
    val b1000 = sp.find(s => s._3 == 1000 && s._4 == "Almser").get._5
    val b2000 = sp.find(s => s._3 == 2000 && s._4 == "Almser").get._5
    assert(math.abs(b1000 - 10.0) < 1e-9 && math.abs(b2000 - 10.0) < 1e-9)
  }

  test("formatting produces one line per row plus a header") {
    val runs = Seq(Experiments.RunResult("m", "d", 1, 0.5, 1.0, 1))
    assert(Experiments.formatRuns(runs).linesIterator.size == 2)
    val rows = Seq(Experiments.Table5Row(1000, 0.5, "Bootstrap", 0.9, 0.01))
    assert(Experiments.formatTable5(rows).linesIterator.size == 2)
  }

  test("runMoRER executes on a small bundle and reports time and labels") {
    val b = Experiments.load(spark, "wdc", sf = 0.1)
    try {
      val r = Experiments.runMoRER(spark, b, BootstrapAL, budget = 120)
      assert(r.method == "MoRER+Bootstrap")
      assert(r.seconds > 0 && r.labels <= 120)
      assert(r.f1 > 0.4, s"F1 ${r.f1}")
    } finally Experiments.unload(b)
  }
}
