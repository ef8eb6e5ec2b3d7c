package repro.jobs

import repro.eval.Experiments

/** Reproduces Table 4 (speedup factors of MoRER vs the baselines) and
  * the Fig. 5 F1 data it is derived from.
  * `spark-submit --class repro.jobs.Table4Speedups` — scale via
  * REPRO_BENCH_SF (default 1.0).
  */
object Table4Speedups {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table4")
    val runs = Experiments.table4(spark)
    println("== Raw runs (F1 + wall clock; the Fig. 5 / Fig. 6 data) ==")
    println(Experiments.formatRuns(runs))
    println()
    println("== Table 4: speedup factors time(baseline) / time(MoRER variant) ==")
    println(Experiments.formatSpeedups(Experiments.speedups(runs)))
    spark.stop()
  }
}
