package repro.bench

import java.nio.file.Files

import repro.SparkSpec
import repro.attack.{AttackDataGen, InvestigationQueries}
import repro.core._
import repro.events.EventStore
import repro.jobs.JobEnv

/** T3 (supplemental) — ablation of the engine's domain-specific
  * optimizations (§2.3): pruning-power scheduling, partition pruning,
  * broadcast joins. The paper claims these as the source of its speedup;
  * this bench isolates each. (Its spatial parallelism is not an arm: on
  * Spark one plan over a multi-agent footprint already runs its partitions
  * in parallel.)
  */
class Table3AblationBench extends SparkSpec {

  private val sf = sys.env.getOrElse("REPRO_SF", "2.0").toDouble

  private val configs: Seq[(String, AiqlConf)] = Seq(
    "full" -> AiqlConf(),
    "-selectivity" -> AiqlConf(selectivityOrdering = false),
    "-pruning" -> AiqlConf(partitionPruning = false),
    "-broadcast" -> AiqlConf(broadcastThreshold = -1),
    "none" -> AiqlConf(selectivityOrdering = false, partitionPruning = false,
                       broadcastThreshold = -1),
  )

  private val queries = Seq("q04", "q08", "q16", "q19")

  test("Table 3: per-optimization ablation on representative queries") {
    val dir = Files.createTempDirectory("aiql-t3").toString
    EventStore.write(AttackDataGen.events(spark, sf), s"$dir/store")
    val full = new Aiql(spark, StorePath(s"$dir/store"))
    val expected = queries.map(n => n -> JobEnv.timedRows(full.query(InvestigationQueries.byName(n).aiql))._1).toMap

    println(s"=== Table 3 (engine ablation, sf=$sf) ===")
    println(f"${"config"}%-14s${queries.map(q => f"$q%10s").mkString}${"total_ms"}%10s")
    for ((name, conf) <- configs) {
      val aiql = new Aiql(spark, StorePath(s"$dir/store"), conf)
      // warm-up
      aiql.query(InvestigationQueries.byName(queries.head).aiql).collect()
      var total = 0L
      val cells = queries.map { qn =>
        val (rows, ms) = JobEnv.timedRows(aiql.query(InvestigationQueries.byName(qn).aiql))
        assert(rows == expected(qn), s"$name/$qn changed results")
        total += ms
        f"$ms%10d"
      }
      println(f"$name%-14s${cells.mkString}$total%10d")
      aiql.close() // drop this config's hot-partition cache before the next arm
    }
    full.close()
  }
}
